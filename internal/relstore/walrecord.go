package relstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"skyloader/internal/frame"
)

// Durable WAL record format.  Every record on disk is one internal/frame
// frame (length, CRC32, payload — the framing checkpoint files and the shard
// wire share), and every payload starts with a one-byte record type and the
// record's LSN, all little-endian:
//
//	insert   = 0x01 | lsn u64 | tableID u32 | txnID u64 | firstID u64 |
//	           rowCount u32 | rowCount x (rowLen u32 | row bytes)
//	commit   = 0x02 | lsn u64 | txnID u64
//	rollback = 0x03 | lsn u64 | txnID u64
//
// Row payloads reuse the order-preserving value encoding of ordkey.go
// (appendOrderedValue) over the full schema-ordered row, with one extension:
// NaN floats — which the key encoding rejects because no total byte order can
// place them — are stored under a WAL-only tag so the redo stream can carry
// any row the heap can.  LSNs increase by one per record across the whole
// log; segment files are named by the LSN of their first record, and replay
// verifies the continuity.
//
// The decoders are total: decodeWALRecord and decodeWALRow return an error
// (never panic) for any byte string that is not a canonical encoding, which
// FuzzWALRecordDecode exercises.  Framing damage — anything frame.Next does
// not report OK: short header, zero or oversized length, truncated payload,
// CRC mismatch — is how a torn tail presents; the segment reader in
// recover.go distinguishes it from post-CRC semantic corruption.

const (
	walRecInsert   = 0x01
	walRecCommit   = 0x02
	walRecRollback = 0x03

	// walTagNaN is the WAL-row-codec-only value tag for NaN floats; it does
	// not collide with the ordkey tag space (0x00-0x05) and never appears in
	// index keys.
	walTagNaN = 0x06

	// walInsertHeaderBytes is where an insert record's rows start: behind its
	// type, LSN, table id, transaction id, first row id and row count.
	walInsertHeaderBytes = 1 + 8 + 4 + 8 + 8 + 4
)

// walInsertRecordLimit is the payload budget the append path chunks insert
// records under, so nothing legitimately written is later rejected by
// frame.Next's MaxPayload check.  A variable only so tests can exercise the
// chunking without building multi-megabyte rows.
var walInsertRecordLimit = frame.MaxPayload

// ErrWALCorrupt reports a WAL or checkpoint byte string that is not a
// canonical record encoding.
var ErrWALCorrupt = errors.New("relstore: corrupt WAL record")

// walRecord is a decoded durable log record.
type walRecord struct {
	typ     byte
	lsn     int64
	tableID uint32
	txnID   int64
	firstID int64
	// rowCount is an insert record's row count and rows its row payloads, each
	// behind its u32 length, framed as decodeWALRecord checked them; recovery
	// decodes the values of a committed record's rows only (rowBuf.addRecord).
	rowCount int
	rows     []byte
}

// appendWALInsertBounded encodes an insert record payload covering as many
// leading rows as fit within walInsertRecordLimit, returning the extended
// buffer and the number of rows encoded (always >= 1 when rows is non-empty).
// The caller loops, re-invoking with the remainder under fresh LSNs, so an
// arbitrarily large batch becomes several valid records instead of one frame
// recovery would reject as corrupt.  A single row whose encoding alone
// exceeds the limit cannot be represented in the log at all and panics at
// append time rather than poisoning the log with an unreadable record.
func appendWALInsertBounded(dst []byte, lsn int64, tableID uint32, txnID, firstID int64, rows []Row) ([]byte, int) {
	base := len(dst)
	dst = append(dst, walRecInsert)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(lsn))
	dst = binary.LittleEndian.AppendUint32(dst, tableID)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(txnID))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(firstID))
	countAt := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	n := 0
	for _, row := range rows {
		mark := len(dst)
		dst = append(dst, 0, 0, 0, 0)
		dst = appendWALRow(dst, row)
		if len(dst)-base > walInsertRecordLimit {
			if n == 0 {
				panic(fmt.Sprintf("relstore: row encodes to %d bytes, exceeding the %d-byte WAL record limit",
					len(dst)-mark-4, walInsertRecordLimit))
			}
			dst = dst[:mark]
			break
		}
		binary.LittleEndian.PutUint32(dst[mark:mark+4], uint32(len(dst)-mark-4))
		n++
	}
	binary.LittleEndian.PutUint32(dst[countAt:countAt+4], uint32(n))
	return dst, n
}

// appendWALMarker encodes a commit or rollback marker payload.
func appendWALMarker(dst []byte, typ byte, lsn, txnID int64) []byte {
	dst = append(dst, typ)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(lsn))
	return binary.LittleEndian.AppendUint64(dst, uint64(txnID))
}

// appendWALRow encodes one full schema-ordered row with the order-preserving
// value encoding, extended with the NaN tag.
func appendWALRow(dst []byte, row Row) []byte {
	for _, v := range row {
		dst = appendWALValue(dst, v)
	}
	return dst
}

// appendWALValue encodes one value of a row payload.
func appendWALValue(dst []byte, v Value) []byte {
	if v.Kind == KindFloat && math.IsNaN(v.F) {
		dst = append(dst, walTagNaN)
		return appendOrderedUint64(dst, math.Float64bits(v.F))
	}
	return appendOrderedValue(dst, v)
}

// decodeWALRow decodes a row payload, appending its values to dst.  The width
// is the table's to check (Table.storeRun).
func decodeWALRow(dst []Value, enc []byte) ([]Value, error) {
	for len(enc) > 0 {
		if enc[0] == walTagNaN {
			if len(enc) < 9 {
				return dst, fmt.Errorf("%w: truncated NaN payload", ErrWALCorrupt)
			}
			f := math.Float64frombits(decodeOrderedUint64(enc[1:9]))
			if !math.IsNaN(f) {
				return dst, fmt.Errorf("%w: non-NaN bits under NaN tag", ErrWALCorrupt)
			}
			dst = append(dst, Value{Kind: KindFloat, F: f})
			enc = enc[9:]
			continue
		}
		v, rest, err := decodeOrderedValue(enc)
		if err != nil {
			return dst, fmt.Errorf("%w: %v", ErrWALCorrupt, err)
		}
		dst = append(dst, v)
		enc = rest
	}
	return dst, nil
}

// decodeWALRecord decodes one framed-and-verified payload: the header, and an
// insert record's row framing, whose values it leaves encoded.  tables is the
// schema's table count; an insert record naming a table id at or past it is
// corrupt.
func decodeWALRecord(payload []byte, tables int) (walRecord, error) {
	c := frame.NewCursor(payload, ErrWALCorrupt)
	rec := walRecord{typ: c.U8(), lsn: c.I64()}
	if rec.lsn < 0 {
		c.Fail(fmt.Errorf("%w: negative LSN", ErrWALCorrupt))
	}
	switch rec.typ {
	case walRecCommit, walRecRollback:
		rec.txnID = c.I64()
	case walRecInsert:
		rec.tableID = c.U32()
		rec.txnID = c.I64()
		rec.firstID = c.I64()
		if rec.firstID < 0 {
			c.Fail(fmt.Errorf("%w: negative first row id", ErrWALCorrupt))
		}
		if int64(rec.tableID) >= int64(tables) {
			c.Fail(fmt.Errorf("%w: unknown table id %d", ErrWALCorrupt, rec.tableID))
		}
		rec.rowCount = c.Count(4) // each row carries at least its length prefix
		rec.rows = payload[min(len(payload), walInsertHeaderBytes):]
		for i := 0; i < rec.rowCount; i++ {
			c.Bytes(int(c.U32()))
		}
	default:
		c.Fail(fmt.Errorf("%w: unknown record type 0x%02x", ErrWALCorrupt, rec.typ))
	}
	return rec, c.Done()
}
