package catalog

import "strings"

// Format renders the record as a catalog file line (without newline): the
// specification AppendLine and Bytes are tested against.
func (r Record) Format() string {
	return string(r.Tag) + FieldSep + strings.Join(r.Fields, FieldSep)
}
