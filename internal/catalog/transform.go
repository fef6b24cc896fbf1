package catalog

import (
	"fmt"
	"strconv"
	"strings"

	"skyloader/internal/htm"
	"skyloader/internal/relstore"
)

// TransformError reports a row that could not be converted into database
// values (malformed numerics, impossible coordinates).  The loader skips such
// rows on the client side, mirroring the validation step of §3.
type TransformError struct {
	Line   int
	Tag    Tag
	Field  string
	Reason string
}

// Error implements the error interface.
func (e *TransformError) Error() string {
	return fmt.Sprintf("catalog: line %d (%s) field %q: %s", e.Line, e.Tag, e.Field, e.Reason)
}

// Transformer converts parsed catalog records into (table, columns, values)
// triples ready for insertion, applying the per-row work the paper describes:
// type conversion, precision adjustment, and computation of derived values
// such as the HTM id and unit-sphere coordinates of each object.
type Transformer struct {
	// HTMDepth is the mesh depth used for object htmids.
	HTMDepth int

	plans      map[Tag]*tagPlan
	objColumns []string
	maxValues  int
}

// tagPlan is everything Transform needs to know about one tag, resolved
// against the schema once in NewTransformer: the per-record work is then one
// plan lookup and the field conversions themselves.
type tagPlan struct {
	layout TagLayout
	// hasTable is false when the schema lacks the destination table.
	hasTable bool
	fields   []fieldPlan
	// raIdx and decIdx are the positions of the ra and dec fields (OBJ only).
	raIdx, decIdx int
}

// fieldPlan is the destination column of one raw field.
type fieldPlan struct {
	known     bool // the table has a column of the field's name
	typ       relstore.ColType
	precision int
}

// NewTransformer creates a transformer for the given repository schema.
func NewTransformer(schema *relstore.Schema) *Transformer {
	t := &Transformer{HTMDepth: htm.DefaultDepth, plans: make(map[Tag]*tagPlan, len(Layouts))}
	for _, layout := range Layouts {
		p := &tagPlan{layout: layout, fields: make([]fieldPlan, len(layout.Fields)), raIdx: -1, decIdx: -1}
		ts := schema.Table(layout.Table)
		p.hasTable = ts != nil
		for i, f := range layout.Fields {
			switch f {
			case "ra":
				p.raIdx = i
			case "dec":
				p.decIdx = i
			}
			if ts == nil {
				continue
			}
			if idx := ts.ColumnIndex(f); idx >= 0 {
				col := ts.Columns[idx]
				p.fields[i] = fieldPlan{known: true, typ: col.Type, precision: col.Precision}
			}
		}
		t.plans[layout.Tag] = p
		t.maxValues = max(t.maxValues, len(layout.Fields)+derivedObjectColumns)
	}
	t.objColumns = append(append([]string{}, t.plans[TagOBJ].layout.Fields...), "htmid", "cx", "cy", "cz")
	return t
}

// TransformedRow is the output of transforming one catalog record.
type TransformedRow struct {
	Table   string
	Columns []string
	Values  []relstore.Value
	// Bytes is the serialized size of the source record, used for
	// throughput accounting.
	Bytes int
}

// derivedObjectColumns is the number of columns Transform appends to an OBJ
// record's own fields (htmid, cx, cy, cz).
const derivedObjectColumns = 4

// Transform converts a record into a database row whose Values are freshly
// allocated and the caller's to keep.
func (t *Transformer) Transform(rec Record) (TransformedRow, error) {
	n := len(rec.Fields)
	if rec.Tag == TagOBJ {
		n += derivedObjectColumns
	}
	return t.TransformInto(make([]relstore.Value, 0, n), rec)
}

// MaxRowValues bounds the width of a row TransformInto produces (the widest
// layout plus the derived object columns): a scratch slice of that capacity
// is never outgrown.
func (t *Transformer) MaxRowValues() int { return t.maxValues }

// TransformInto is Transform writing the row's Values into scratch (from its
// start, growing it only when its capacity is too small): the returned row is
// valid until scratch is next written, so a caller that passes the same
// scratch for every record copies the values it keeps (ArraySet.Add does).
func (t *Transformer) TransformInto(scratch []relstore.Value, rec Record) (TransformedRow, error) {
	p, ok := t.plans[rec.Tag]
	if !ok {
		return TransformedRow{}, &TransformError{Line: rec.Line, Tag: rec.Tag, Reason: "unknown tag"}
	}
	layout := &p.layout
	if !p.hasTable {
		return TransformedRow{}, &TransformError{Line: rec.Line, Tag: rec.Tag,
			Reason: fmt.Sprintf("schema has no table %q", layout.Table)}
	}
	if len(rec.Fields) != len(layout.Fields) {
		return TransformedRow{}, &TransformError{Line: rec.Line, Tag: rec.Tag,
			Reason: fmt.Sprintf("expected %d fields, got %d", len(layout.Fields), len(rec.Fields))}
	}

	values := scratch[:0]
	for i := range p.fields {
		v, err := convertField(&p.fields[i], layout.Table, layout.Fields[i], rec.Fields[i])
		if err != nil {
			return TransformedRow{}, &TransformError{Line: rec.Line, Tag: rec.Tag, Field: layout.Fields[i], Reason: err.Error()}
		}
		values = append(values, v)
	}

	row := TransformedRow{
		Table:   layout.Table,
		Columns: layout.Fields,
		Values:  values,
		Bytes:   rec.Bytes(),
	}

	if rec.Tag == TagOBJ {
		var err error
		if row.Values, err = t.appendObjectColumns(rec, p, values); err != nil {
			return TransformedRow{}, err
		}
		row.Columns = t.objColumns
	}
	return row, nil
}

// convertField converts one raw field to the typed value of the destination
// column, applying precision rounding for floats.  Empty fields become NULL.
func convertField(f *fieldPlan, table, colName, raw string) (relstore.Value, error) {
	raw = strings.TrimSpace(raw)
	if raw == "" {
		return relstore.Null, nil
	}
	if !f.known {
		return relstore.Null, fmt.Errorf("table %q has no column %q", table, colName)
	}
	switch f.typ {
	case relstore.TypeInt:
		n, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			return relstore.Null, fmt.Errorf("not an integer: %q", raw)
		}
		return relstore.Int(n), nil
	case relstore.TypeFloat:
		x, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return relstore.Null, fmt.Errorf("not a float: %q", raw)
		}
		if f.precision > 0 {
			x = relstore.RoundTo(x, f.precision)
		}
		return relstore.Float(x), nil
	case relstore.TypeBool:
		b, err := strconv.ParseBool(raw)
		if err != nil {
			return relstore.Null, fmt.Errorf("not a boolean: %q", raw)
		}
		return relstore.Bool(b), nil
	default:
		return relstore.Str(raw), nil
	}
}

// appendObjectColumns appends the htmid and unit-sphere coordinates of an OBJ
// record, computed from its ra/dec fields, to values.
func (t *Transformer) appendObjectColumns(rec Record, p *tagPlan, values []relstore.Value) ([]relstore.Value, error) {
	raV, decV := values[p.raIdx], values[p.decIdx]
	if raV.Kind != relstore.KindFloat || decV.Kind != relstore.KindFloat {
		return nil, &TransformError{Line: rec.Line, Tag: rec.Tag, Field: "ra/dec",
			Reason: "object position missing, cannot compute htmid"}
	}
	ra, dec := raV.F, decV.F
	// Positions outside the celestial sphere cannot be assigned an HTM id;
	// the row is kept (the database check constraint rejects it) with a NULL
	// htmid so the error surfaces through the normal recovery path.
	htmVal := relstore.Null
	if ra >= 0 && ra <= 360 && dec >= -90 && dec <= 90 {
		if id, err := htm.Lookup(ra, dec, t.HTMDepth); err == nil {
			htmVal = relstore.Int(id)
		}
	}
	vec := htm.FromRaDec(ra, dec)
	return append(values, htmVal,
		relstore.Float(relstore.RoundTo(vec.X, 8)),
		relstore.Float(relstore.RoundTo(vec.Y, 8)),
		relstore.Float(relstore.RoundTo(vec.Z, 8))), nil
}
