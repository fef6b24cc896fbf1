package relstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// Durable WAL record format.  Every record on disk is framed as
//
//	[u32 payload length][u32 CRC32-IEEE of payload][payload]
//
// (little-endian), and every payload starts with a one-byte record type and
// the record's LSN:
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
// The decoder is total: decodeWALRecord returns an error (never panics) for
// any byte string that is not a canonical encoding, which FuzzWALRecordDecode
// exercises.  Framing errors — short header, oversized length, truncated
// payload, CRC mismatch — are how torn tails present; they are distinguished
// from post-CRC semantic corruption by the segment reader in recover.go.

const (
	walRecInsert   = 0x01
	walRecCommit   = 0x02
	walRecRollback = 0x03

	// walTagNaN is the WAL-row-codec-only value tag for NaN floats; it does
	// not collide with the ordkey tag space (0x00-0x05) and never appears in
	// index keys.
	walTagNaN = 0x06

	// walFrameHeader is the length+CRC framing prefix of every record.
	walFrameHeader = 8

	// maxWALRecordBytes bounds a single record's payload; a length prefix
	// above it is treated as a torn/corrupt tail rather than honored as an
	// allocation request.
	maxWALRecordBytes = 64 << 20
)

// walInsertRecordLimit is the payload budget the append path chunks insert
// records under, so nothing legitimately written is later rejected by
// nextWALFrame's maxWALRecordBytes check.  A variable only so tests can
// exercise the chunking without building multi-megabyte rows.
var walInsertRecordLimit = maxWALRecordBytes

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
	// rows holds the decoded row payloads of an insert record; nil when the
	// decode was asked to skip them (the commit-collection pass).
	rows []Row
	// rowCount is the row count of an insert record, valid even when rows
	// were skipped.
	rowCount int
}

// appendWALFrame frames a payload (length prefix + CRC) onto dst.
func appendWALFrame(dst, payload []byte) []byte {
	var h [walFrameHeader]byte
	binary.LittleEndian.PutUint32(h[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(h[4:8], crc32.ChecksumIEEE(payload))
	dst = append(dst, h[:]...)
	return append(dst, payload...)
}

// appendWALInsert encodes an insert record payload covering rows stored with
// contiguous ids starting at firstID.
func appendWALInsert(dst []byte, lsn int64, tableID uint32, txnID, firstID int64, rows []Row) []byte {
	dst = append(dst, walRecInsert)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(lsn))
	dst = binary.LittleEndian.AppendUint32(dst, tableID)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(txnID))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(firstID))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(rows)))
	for _, row := range rows {
		lenAt := len(dst)
		dst = append(dst, 0, 0, 0, 0)
		dst = appendWALRow(dst, row)
		binary.LittleEndian.PutUint32(dst[lenAt:lenAt+4], uint32(len(dst)-lenAt-4))
	}
	return dst
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

// decodeWALRow decodes a row payload; wantCols is the owning table's column
// count (decoded rows must match it exactly).
func decodeWALRow(enc []byte, wantCols int) (Row, error) {
	row := make(Row, 0, wantCols)
	for len(enc) > 0 {
		if enc[0] == walTagNaN {
			if len(enc) < 9 {
				return nil, fmt.Errorf("%w: truncated NaN payload", ErrWALCorrupt)
			}
			f := math.Float64frombits(decodeOrderedUint64(enc[1:9]))
			if !math.IsNaN(f) {
				return nil, fmt.Errorf("%w: non-NaN bits under NaN tag", ErrWALCorrupt)
			}
			row = append(row, Value{Kind: KindFloat, F: f})
			enc = enc[9:]
			continue
		}
		v, rest, err := decodeOrderedValue(enc)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrWALCorrupt, err)
		}
		row = append(row, v)
		enc = rest
	}
	if len(row) != wantCols {
		return nil, fmt.Errorf("%w: row has %d values, table has %d columns", ErrWALCorrupt, len(row), wantCols)
	}
	return row, nil
}

// walRowWidth reports the column count decodeWALRecord should enforce for a
// table id; Recover passes the schema's widths, the fuzz target passes nil
// (any width accepted).
type walRowWidth func(tableID uint32) (int, bool)

// decodeWALRecord decodes one framed-and-verified payload.  With decodeRows
// false the row payloads of insert records are counted but not materialized —
// the cheap first pass that only collects txn outcomes.  widthOf, when
// non-nil, validates table ids and row widths against the schema.
func decodeWALRecord(payload []byte, decodeRows bool, widthOf walRowWidth) (walRecord, error) {
	var rec walRecord
	if len(payload) < 9 {
		return rec, fmt.Errorf("%w: %d-byte payload", ErrWALCorrupt, len(payload))
	}
	rec.typ = payload[0]
	rec.lsn = int64(binary.LittleEndian.Uint64(payload[1:9]))
	if rec.lsn < 0 {
		return rec, fmt.Errorf("%w: negative LSN", ErrWALCorrupt)
	}
	body := payload[9:]
	switch rec.typ {
	case walRecCommit, walRecRollback:
		if len(body) != 8 {
			return rec, fmt.Errorf("%w: marker body %d bytes", ErrWALCorrupt, len(body))
		}
		rec.txnID = int64(binary.LittleEndian.Uint64(body))
		return rec, nil
	case walRecInsert:
		if len(body) < 24 {
			return rec, fmt.Errorf("%w: insert body %d bytes", ErrWALCorrupt, len(body))
		}
		rec.tableID = binary.LittleEndian.Uint32(body[0:4])
		rec.txnID = int64(binary.LittleEndian.Uint64(body[4:12]))
		rec.firstID = int64(binary.LittleEndian.Uint64(body[12:20]))
		n := binary.LittleEndian.Uint32(body[20:24])
		if n > maxWALRecordBytes/4 {
			return rec, fmt.Errorf("%w: insert row count %d", ErrWALCorrupt, n)
		}
		if rec.firstID < 0 {
			return rec, fmt.Errorf("%w: negative first row id", ErrWALCorrupt)
		}
		rec.rowCount = int(n)
		wantCols := -1
		if widthOf != nil {
			w, ok := widthOf(rec.tableID)
			if !ok {
				return rec, fmt.Errorf("%w: unknown table id %d", ErrWALCorrupt, rec.tableID)
			}
			wantCols = w
		}
		body = body[24:]
		if decodeRows {
			rec.rows = make([]Row, 0, n)
		}
		for i := uint32(0); i < n; i++ {
			if len(body) < 4 {
				return rec, fmt.Errorf("%w: truncated row length", ErrWALCorrupt)
			}
			rl := binary.LittleEndian.Uint32(body[0:4])
			body = body[4:]
			if uint32(len(body)) < rl {
				return rec, fmt.Errorf("%w: row payload %d bytes, want %d", ErrWALCorrupt, len(body), rl)
			}
			if decodeRows {
				want := wantCols
				if want < 0 {
					// No schema (fuzz target): accept any width by decoding
					// first and trusting the count.
					row, err := decodeWALRowAnyWidth(body[:rl])
					if err != nil {
						return rec, err
					}
					rec.rows = append(rec.rows, row)
				} else {
					row, err := decodeWALRow(body[:rl], want)
					if err != nil {
						return rec, err
					}
					rec.rows = append(rec.rows, row)
				}
			}
			body = body[rl:]
		}
		if len(body) != 0 {
			return rec, fmt.Errorf("%w: %d trailing bytes after insert rows", ErrWALCorrupt, len(body))
		}
		return rec, nil
	default:
		return rec, fmt.Errorf("%w: unknown record type 0x%02x", ErrWALCorrupt, rec.typ)
	}
}

// decodeWALRowAnyWidth decodes a row without a schema width to enforce.
func decodeWALRowAnyWidth(enc []byte) (Row, error) {
	var row Row
	for len(enc) > 0 {
		if enc[0] == walTagNaN {
			if len(enc) < 9 {
				return nil, fmt.Errorf("%w: truncated NaN payload", ErrWALCorrupt)
			}
			f := math.Float64frombits(decodeOrderedUint64(enc[1:9]))
			if !math.IsNaN(f) {
				return nil, fmt.Errorf("%w: non-NaN bits under NaN tag", ErrWALCorrupt)
			}
			row = append(row, Value{Kind: KindFloat, F: f})
			enc = enc[9:]
			continue
		}
		v, rest, err := decodeOrderedValue(enc)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrWALCorrupt, err)
		}
		row = append(row, v)
		enc = rest
	}
	return row, nil
}

// nextWALFrame parses one framed record off the front of buf.  It returns the
// payload and the remaining bytes, or ok == false when buf ends in a torn or
// corrupt frame (short header, oversized length, truncated payload, CRC
// mismatch) — the conditions a crash mid-append produces.
func nextWALFrame(buf []byte) (payload, rest []byte, ok bool) {
	if len(buf) < walFrameHeader {
		return nil, buf, false
	}
	n := binary.LittleEndian.Uint32(buf[0:4])
	if n > maxWALRecordBytes {
		return nil, buf, false
	}
	crc := binary.LittleEndian.Uint32(buf[4:8])
	body := buf[walFrameHeader:]
	if uint32(len(body)) < n {
		return nil, buf, false
	}
	payload = body[:n]
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, buf, false
	}
	return payload, body[n:], true
}
