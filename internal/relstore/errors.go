package relstore

import (
	"errors"
	"fmt"
)

// ConstraintKind identifies the class of integrity constraint that an insert
// violated.  The loader's error-recovery path (skip the offending row, repack
// the batch, continue) treats all kinds uniformly, but statistics and tests
// distinguish them.
type ConstraintKind int

const (
	// KindPrimaryKey is a duplicate primary-key violation.
	KindPrimaryKey ConstraintKind = iota
	// KindForeignKey is a reference to a missing parent row.
	KindForeignKey
	// KindUnique is a duplicate value in a unique (non-PK) constraint.
	KindUnique
	// KindCheck is a check-constraint (range/domain) violation.
	KindCheck
	// KindNotNull is a NULL in a NOT NULL column.
	KindNotNull
	// KindType is a type-conversion failure.
	KindType
	// KindArity is a column-count mismatch between statement and row.
	KindArity
	// KindUnknownTable is an insert into a table that does not exist.
	KindUnknownTable
)

// String names the constraint kind.
func (k ConstraintKind) String() string {
	switch k {
	case KindPrimaryKey:
		return "PRIMARY KEY"
	case KindForeignKey:
		return "FOREIGN KEY"
	case KindUnique:
		return "UNIQUE"
	case KindCheck:
		return "CHECK"
	case KindNotNull:
		return "NOT NULL"
	case KindType:
		return "TYPE"
	case KindArity:
		return "ARITY"
	case KindUnknownTable:
		return "UNKNOWN TABLE"
	default:
		return fmt.Sprintf("ConstraintKind(%d)", int(k))
	}
}

// ConstraintError reports an integrity violation detected during an insert.
type ConstraintError struct {
	Kind       ConstraintKind
	Table      string
	Constraint string
	Column     string
	Detail     string
}

// Error implements the error interface.
func (e *ConstraintError) Error() string {
	msg := fmt.Sprintf("relstore: %s violation on table %q", e.Kind, e.Table)
	if e.Constraint != "" {
		msg += fmt.Sprintf(" (constraint %q)", e.Constraint)
	}
	if e.Column != "" {
		msg += fmt.Sprintf(" column %q", e.Column)
	}
	if e.Detail != "" {
		msg += ": " + e.Detail
	}
	return msg
}

// IsConstraintViolation reports whether err is (or wraps) a ConstraintError.
// A nil error returns before errors.As, whose escaping target would otherwise
// cost every successful insert an allocation.
func IsConstraintViolation(err error) bool {
	if err == nil {
		return false
	}
	var ce *ConstraintError
	return errors.As(err, &ce)
}

// ViolationKind extracts the constraint kind from err; ok is false when err is
// not a constraint violation.
func ViolationKind(err error) (kind ConstraintKind, ok bool) {
	if err == nil {
		return 0, false
	}
	var ce *ConstraintError
	if errors.As(err, &ce) {
		return ce.Kind, true
	}
	return 0, false
}

// ErrTxnNotActive is returned when an operation is attempted on a transaction
// that has already committed or rolled back.
var ErrTxnNotActive = errors.New("relstore: transaction is not active")

// ErrNoSuchTable is returned for operations on tables absent from the schema.
var ErrNoSuchTable = errors.New("relstore: no such table")

// ErrNoSuchIndex is returned for operations on indexes that do not exist.
var ErrNoSuchIndex = errors.New("relstore: no such index")

// ErrIndexExists is returned when creating an index whose name is taken.
var ErrIndexExists = errors.New("relstore: index already exists")

// ErrNoSuchColumn is returned when index DDL references a column absent from
// the table schema.
var ErrNoSuchColumn = errors.New("relstore: no such column")

// ErrLoadPhaseActive is returned by BeginLoad when a load phase is already
// open (Seal has not been called for the previous BeginLoad).
var ErrLoadPhaseActive = errors.New("relstore: load phase already active")

// ErrIndexNotReady is returned by indexed reads on a suspended index — a
// deferred-policy index between BeginLoad and Seal, which is missing the
// rows loaded since the phase opened.  Callers should fall back to a scan
// (check Index.Ready first, as internal/queries does).
var ErrIndexNotReady = errors.New("relstore: index not ready (deferred build pending Seal)")
