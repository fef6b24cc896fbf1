package relstore

import (
	"strings"
	"testing"
)

// testSchema builds a small parent/child/grandchild schema mirroring the
// frames -> objects -> fingers chain used throughout the paper's examples.
func testSchema(t testing.TB) *Schema {
	t.Helper()
	s, err := NewSchema(
		&TableSchema{
			Name: "frames",
			Columns: []Column{
				{Name: "frame_id", Type: TypeInt},
				{Name: "exposure", Type: TypeFloat, Nullable: true},
			},
			PrimaryKey: []string{"frame_id"},
		},
		&TableSchema{
			Name: "objects",
			Columns: []Column{
				{Name: "object_id", Type: TypeInt},
				{Name: "frame_id", Type: TypeInt},
				{Name: "mag", Type: TypeFloat},
			},
			PrimaryKey: []string{"object_id"},
			ForeignKeys: []ForeignKey{
				{Name: "fk_obj_frame", Columns: []string{"frame_id"}, RefTable: "frames", RefColumns: []string{"frame_id"}},
			},
			Checks: []CheckConstraint{
				{Name: "ck_mag", Column: "mag", Min: fp(0), Max: fp(40)},
			},
		},
		&TableSchema{
			Name: "fingers",
			Columns: []Column{
				{Name: "finger_id", Type: TypeInt},
				{Name: "object_id", Type: TypeInt},
				{Name: "flux", Type: TypeFloat, Nullable: true},
			},
			PrimaryKey: []string{"finger_id"},
			ForeignKeys: []ForeignKey{
				{Name: "fk_fng_obj", Columns: []string{"object_id"}, RefTable: "objects", RefColumns: []string{"object_id"}},
			},
			Uniques: []UniqueConstraint{{Name: "uq_fng", Columns: []string{"object_id", "flux"}}},
		},
	)
	if err != nil {
		t.Fatalf("NewSchema: %v", err)
	}
	return s
}

func fp(v float64) *float64 { return &v }

func TestSchemaBasics(t *testing.T) {
	s := testSchema(t)
	if s.NumTables() != 3 {
		t.Fatalf("NumTables = %d", s.NumTables())
	}
	if s.Table("objects") == nil || s.Table("missing") != nil {
		t.Fatal("Table lookup broken")
	}
	if got := s.Table("objects").ColumnIndex("mag"); got != 2 {
		t.Fatalf("ColumnIndex(mag) = %d", got)
	}
	if s.Table("objects").ColumnIndex("nope") != -1 {
		t.Fatal("missing column should return -1")
	}
	names := s.Table("frames").ColumnNames()
	if len(names) != 2 || names[0] != "frame_id" {
		t.Fatalf("ColumnNames = %v", names)
	}
}

func TestSchemaTopologicalOrder(t *testing.T) {
	s := testSchema(t)
	order, err := s.TopologicalOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, n := range order {
		pos[n] = i
	}
	if !(pos["frames"] < pos["objects"] && pos["objects"] < pos["fingers"]) {
		t.Fatalf("order %v does not respect parent-before-child", order)
	}
}

func TestSchemaParentsChildren(t *testing.T) {
	s := testSchema(t)
	if fks := s.Table("objects").ForeignKeys; len(fks) != 1 || fks[0].RefTable != "frames" {
		t.Fatalf("objects' foreign keys = %+v", fks)
	}
	if c := s.Children("objects"); len(c) != 1 || c[0] != "fingers" {
		t.Fatalf("Children(objects) = %v", c)
	}
	if c := s.Children("fingers"); len(c) != 0 {
		t.Fatalf("Children(fingers) = %v", c)
	}
}

func TestSchemaValidationErrors(t *testing.T) {
	cases := []struct {
		name   string
		tables []*TableSchema
		substr string
	}{
		{
			"empty name",
			[]*TableSchema{{Name: "", Columns: []Column{{Name: "a", Type: TypeInt}}, PrimaryKey: []string{"a"}}},
			"empty name",
		},
		{
			"duplicate table",
			[]*TableSchema{
				{Name: "t", Columns: []Column{{Name: "a", Type: TypeInt}}, PrimaryKey: []string{"a"}},
				{Name: "t", Columns: []Column{{Name: "a", Type: TypeInt}}, PrimaryKey: []string{"a"}},
			},
			"duplicate table",
		},
		{
			"no columns",
			[]*TableSchema{{Name: "t", PrimaryKey: []string{"a"}}},
			"no columns",
		},
		{
			"no primary key",
			[]*TableSchema{{Name: "t", Columns: []Column{{Name: "a", Type: TypeInt}}}},
			"no primary key",
		},
		{
			"pk references missing column",
			[]*TableSchema{{Name: "t", Columns: []Column{{Name: "a", Type: TypeInt}}, PrimaryKey: []string{"b"}}},
			"unknown column",
		},
		{
			"fk references missing table",
			[]*TableSchema{{
				Name:       "t",
				Columns:    []Column{{Name: "a", Type: TypeInt}},
				PrimaryKey: []string{"a"},
				ForeignKeys: []ForeignKey{
					{Name: "fk", Columns: []string{"a"}, RefTable: "gone", RefColumns: []string{"x"}},
				},
			}},
			"unknown table",
		},
		{
			"fk cycle",
			[]*TableSchema{
				{
					Name:       "a",
					Columns:    []Column{{Name: "id", Type: TypeInt}, {Name: "b_id", Type: TypeInt, Nullable: true}},
					PrimaryKey: []string{"id"},
					ForeignKeys: []ForeignKey{
						{Name: "fk_ab", Columns: []string{"b_id"}, RefTable: "b", RefColumns: []string{"id"}},
					},
				},
				{
					Name:       "b",
					Columns:    []Column{{Name: "id", Type: TypeInt}, {Name: "a_id", Type: TypeInt, Nullable: true}},
					PrimaryKey: []string{"id"},
					ForeignKeys: []ForeignKey{
						{Name: "fk_ba", Columns: []string{"a_id"}, RefTable: "a", RefColumns: []string{"id"}},
					},
				},
			},
			"cycle",
		},
	}
	for _, c := range cases {
		_, err := NewSchema(c.tables...)
		if err == nil {
			t.Errorf("%s: expected error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.substr) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.substr)
		}
	}
}

func TestSelfReferencingForeignKeyAllowed(t *testing.T) {
	_, err := NewSchema(&TableSchema{
		Name: "nodes",
		Columns: []Column{
			{Name: "id", Type: TypeInt},
			{Name: "parent_id", Type: TypeInt, Nullable: true},
		},
		PrimaryKey: []string{"id"},
		ForeignKeys: []ForeignKey{
			{Name: "fk_parent", Columns: []string{"parent_id"}, RefTable: "nodes", RefColumns: []string{"id"}},
		},
	})
	if err != nil {
		t.Fatalf("self-referencing FK should be allowed: %v", err)
	}
}

func TestMustSchemaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustSchema should panic on invalid schema")
		}
	}()
	MustSchema(&TableSchema{Name: "t"})
}
