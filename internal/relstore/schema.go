package relstore

import (
	"fmt"
	"sort"
)

// Column describes one attribute of a table.
type Column struct {
	Name     string
	Type     ColType
	Nullable bool
	// Precision, when > 0 and the type is TypeFloat, is the number of
	// decimal places the catalog transformer rounds the value to.  The engine
	// takes it as a storage hint: a closed heap page holds the column as
	// integers scaled by 10^Precision when every value on the page decodes
	// back to its exact bits, and as raw float bits otherwise, so a value off
	// the declared precision is stored unchanged, never rounded.
	Precision int
}

// CheckConstraint is a simple domain constraint on a single column, optionally
// augmented with an arbitrary row predicate.  The Palomar-Quest loading
// pipeline uses range checks to filter out errors and outliers (§3), and the
// database performs "stringent data checking ... to guard against hidden
// corruption" (§4.3).
type CheckConstraint struct {
	Name   string
	Column string
	// Min/Max bound numeric columns when non-nil.
	Min *float64
	Max *float64
	// Fn, when non-nil, must return true for the row to be accepted.
	Fn func(Row) bool `json:"-"`
}

// ForeignKey declares that Columns in the child table reference RefColumns
// (the primary key) of RefTable.
type ForeignKey struct {
	Name       string
	Columns    []string
	RefTable   string
	RefColumns []string
}

// UniqueConstraint declares a non-primary-key uniqueness constraint.
type UniqueConstraint struct {
	Name    string
	Columns []string
}

// TableSchema describes one table: its columns, primary key and constraints.
type TableSchema struct {
	Name        string
	Columns     []Column
	PrimaryKey  []string
	ForeignKeys []ForeignKey
	Uniques     []UniqueConstraint
	Checks      []CheckConstraint

	colIndex map[string]int
}

// ColumnIndex returns the position of the named column, or -1 if absent.
func (t *TableSchema) ColumnIndex(name string) int {
	if t.colIndex == nil {
		t.buildColIndex()
	}
	if i, ok := t.colIndex[name]; ok {
		return i
	}
	return -1
}

func (t *TableSchema) buildColIndex() {
	t.colIndex = make(map[string]int, len(t.Columns))
	for i, c := range t.Columns {
		t.colIndex[c.Name] = i
	}
}

// ColumnNames returns the column names in declaration order.
func (t *TableSchema) ColumnNames() []string {
	out := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		out[i] = c.Name
	}
	return out
}

// HasColumn reports whether the table declares the named column.
func (t *TableSchema) HasColumn(name string) bool { return t.ColumnIndex(name) >= 0 }

// Schema is an ordered collection of table schemas plus the foreign-key graph
// between them.
type Schema struct {
	tables []*TableSchema
	byName map[string]*TableSchema
}

// NewSchema builds a schema from table definitions and validates it: column
// references in keys and constraints must exist, foreign keys must reference
// existing tables' primary keys, and the foreign-key graph must be acyclic
// (so that a parent-before-child load order exists, which the SkyLoader
// bulk-loading algorithm depends on).
func NewSchema(tables ...*TableSchema) (*Schema, error) {
	s := &Schema{byName: make(map[string]*TableSchema, len(tables))}
	for _, t := range tables {
		if t.Name == "" {
			return nil, fmt.Errorf("relstore: table with empty name")
		}
		if _, dup := s.byName[t.Name]; dup {
			return nil, fmt.Errorf("relstore: duplicate table %q", t.Name)
		}
		if len(t.Columns) == 0 {
			return nil, fmt.Errorf("relstore: table %q has no columns", t.Name)
		}
		t.buildColIndex()
		if len(t.colIndex) != len(t.Columns) {
			return nil, fmt.Errorf("relstore: table %q has duplicate column names", t.Name)
		}
		s.tables = append(s.tables, t)
		s.byName[t.Name] = t
	}
	for _, t := range s.tables {
		if len(t.PrimaryKey) == 0 {
			return nil, fmt.Errorf("relstore: table %q has no primary key", t.Name)
		}
		for _, c := range t.PrimaryKey {
			if !t.HasColumn(c) {
				return nil, fmt.Errorf("relstore: table %q primary key references unknown column %q", t.Name, c)
			}
		}
		for _, u := range t.Uniques {
			for _, c := range u.Columns {
				if !t.HasColumn(c) {
					return nil, fmt.Errorf("relstore: table %q unique %q references unknown column %q", t.Name, u.Name, c)
				}
			}
		}
		for _, ck := range t.Checks {
			if ck.Column != "" && !t.HasColumn(ck.Column) {
				return nil, fmt.Errorf("relstore: table %q check %q references unknown column %q", t.Name, ck.Name, ck.Column)
			}
		}
		for _, fk := range t.ForeignKeys {
			parent, ok := s.byName[fk.RefTable]
			if !ok {
				return nil, fmt.Errorf("relstore: table %q foreign key %q references unknown table %q", t.Name, fk.Name, fk.RefTable)
			}
			if len(fk.Columns) == 0 || len(fk.Columns) != len(fk.RefColumns) {
				return nil, fmt.Errorf("relstore: table %q foreign key %q has mismatched column lists", t.Name, fk.Name)
			}
			for _, c := range fk.Columns {
				if !t.HasColumn(c) {
					return nil, fmt.Errorf("relstore: table %q foreign key %q references unknown local column %q", t.Name, fk.Name, c)
				}
			}
			for _, c := range fk.RefColumns {
				if !parent.HasColumn(c) {
					return nil, fmt.Errorf("relstore: table %q foreign key %q references unknown column %q of %q", t.Name, fk.Name, c, fk.RefTable)
				}
			}
		}
	}
	if _, err := s.TopologicalOrder(); err != nil {
		return nil, err
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error; intended for statically
// defined schemas such as the Palomar-Quest catalog model.
func MustSchema(tables ...*TableSchema) *Schema {
	s, err := NewSchema(tables...)
	if err != nil {
		panic(err)
	}
	return s
}

// Tables returns the table schemas in declaration order.
func (s *Schema) Tables() []*TableSchema { return s.tables }

// TableNames returns the table names in declaration order.
func (s *Schema) TableNames() []string {
	out := make([]string, len(s.tables))
	for i, t := range s.tables {
		out[i] = t.Name
	}
	return out
}

// Table returns the named table schema, or nil if absent.
func (s *Schema) Table(name string) *TableSchema { return s.byName[name] }

// NumTables returns the number of tables in the schema.
func (s *Schema) NumTables() int { return len(s.tables) }

// Children returns the names of tables that directly reference name through
// foreign keys (deduplicated, sorted).
func (s *Schema) Children(name string) []string {
	set := map[string]bool{}
	for _, t := range s.tables {
		for _, fk := range t.ForeignKeys {
			if fk.RefTable == name && t.Name != name {
				set[t.Name] = true
			}
		}
	}
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// TopologicalOrder returns the table names ordered so that every table appears
// after all tables it references (parents before children).  This is the bulk
// loading order of Figure 2 in the paper.  Ties are broken by declaration
// order so the result is deterministic.
func (s *Schema) TopologicalOrder() ([]string, error) {
	indeg := make(map[string]int, len(s.tables))
	for _, t := range s.tables {
		indeg[t.Name] = 0
	}
	for _, t := range s.tables {
		seen := map[string]bool{}
		for _, fk := range t.ForeignKeys {
			if fk.RefTable == t.Name || seen[fk.RefTable] {
				continue
			}
			seen[fk.RefTable] = true
			indeg[t.Name]++
		}
	}
	// Kahn's algorithm with declaration-order tie break.
	var order []string
	done := map[string]bool{}
	for len(order) < len(s.tables) {
		progressed := false
		for _, t := range s.tables {
			if done[t.Name] || indeg[t.Name] != 0 {
				continue
			}
			done[t.Name] = true
			order = append(order, t.Name)
			progressed = true
			for _, child := range s.Children(t.Name) {
				indeg[child]--
			}
		}
		if !progressed {
			return nil, fmt.Errorf("relstore: foreign-key graph contains a cycle")
		}
	}
	return order, nil
}
