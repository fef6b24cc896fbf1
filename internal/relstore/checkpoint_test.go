package relstore

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"skyloader/internal/frame"
)

// encodeCheckpointSingleBuffer is the encoder encodeCheckpoint replaced — the
// whole snapshot appended to one growing []byte, every rows record built in a
// side buffer and copied twice — kept as the oracle for the file's bytes.
func encodeCheckpointSingleBuffer(seq, boundary, maxTxn int64, tables []*Table) []byte {
	var buf, payload []byte
	buf = append(buf, ckptMagic...)

	payload = append(payload[:0], ckptRecHeader)
	payload = binary.LittleEndian.AppendUint64(payload, uint64(seq))
	payload = binary.LittleEndian.AppendUint64(payload, uint64(boundary))
	payload = binary.LittleEndian.AppendUint64(payload, uint64(maxTxn))
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(tables)))
	buf = frame.Append(buf, payload)

	for tid, t := range tables {
		payload = append(payload[:0], ckptRecTable)
		payload = binary.LittleEndian.AppendUint32(payload, uint32(tid))
		payload = binary.LittleEndian.AppendUint64(payload, uint64(t.nextRow))
		payload = binary.LittleEndian.AppendUint64(payload, uint64(t.heap.rowCount))
		buf = frame.Append(buf, payload)

		count := 0
		var rowsPayload []byte
		flush := func() {
			if count == 0 {
				return
			}
			payload = append(payload[:0], ckptRecRows)
			payload = binary.LittleEndian.AppendUint32(payload, uint32(tid))
			payload = binary.LittleEndian.AppendUint32(payload, uint32(count))
			payload = append(payload, rowsPayload...)
			buf = frame.Append(buf, payload)
			count = 0
			rowsPayload = rowsPayload[:0]
		}
		t.scanRowsByID(func(id int64, row RowView) {
			rowsPayload = binary.LittleEndian.AppendUint64(rowsPayload, uint64(id))
			lenAt := len(rowsPayload)
			rowsPayload = append(rowsPayload, 0, 0, 0, 0)
			for c := 0; c < row.Len(); c++ {
				rowsPayload = appendWALValue(rowsPayload, row.val(c))
			}
			binary.LittleEndian.PutUint32(rowsPayload[lenAt:lenAt+4], uint32(len(rowsPayload)-lenAt-4))
			count++
			if count >= ckptRowsPerRecord {
				flush()
			}
		})
		flush()
	}
	buf = frame.Append(buf, []byte{ckptRecEnd})
	return buf
}

// notesSchema is one table whose rows vary in encoded size: a nullable
// string (any bytes, NULs included) and a nullable float (NaN included).
func notesSchema(t testing.TB) *Schema {
	t.Helper()
	s, err := NewSchema(&TableSchema{
		Name: "notes",
		Columns: []Column{
			{Name: "note_id", Type: TypeInt},
			{Name: "body", Type: TypeString, Nullable: true},
			{Name: "x", Type: TypeFloat, Nullable: true},
		},
		PrimaryKey: []string{"note_id"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// loadNotes commits n rows: bodies of 0..199 bytes, every seventh NULL,
// every fifth full of NUL bytes (which the encoding doubles), every eleventh
// x a NaN.
func loadNotes(t testing.TB, db *DB, n int) {
	t.Helper()
	txn, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		body, x := Str(strings.Repeat("abcdefghij", 20)[:i%200]), Float(float64(i)/7)
		switch {
		case i%7 == 0:
			body = Null
		case i%5 == 0:
			body = Str(strings.Repeat("\x00", i%200))
		}
		if i%11 == 0 {
			x = Float(math.NaN())
		}
		if _, err := txn.Insert("notes", []string{"note_id", "body", "x"}, []Value{Int(int64(i)), body, x}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
}

// checkChunks fails unless chunks are the oracle's bytes cut only between
// frames, each chunk well filled before the next was opened (unless the next
// was made larger for a row no chunk could hold).
func checkChunks(t *testing.T, chunks [][]byte, want []byte) {
	t.Helper()
	if got := bytes.Join(chunks, nil); !bytes.Equal(got, want) {
		t.Fatalf("chunks join to %d bytes that differ from the single-buffer encoder's %d", len(got), len(want))
	}
	for i, chunk := range chunks {
		rest := chunk
		if i == 0 {
			rest = rest[len(ckptMagic):]
		}
		frames := 0
		for len(rest) > 0 {
			var st frame.Status
			if _, rest, st = frame.Next(rest); st != frame.OK {
				t.Fatalf("chunk %d of %d does not end on a frame boundary (status %d after %d frames)", i, len(chunks), st, frames)
			}
			frames++
		}
		if i < len(chunks)-1 && len(chunk) < ckptChunkBytes/2 && len(chunks[i+1]) <= ckptChunkBytes {
			t.Fatalf("chunk %d closed at %d bytes, under half the chunk size", i, len(chunk))
		}
	}
}

// TestCheckpointEncodeBounded: the chunked encoder writes the file the
// single-buffer encoder wrote, byte for byte, and a checkpoint allocates
// little more than the file's size doing it (the growing buffer allocated
// 5.24 bytes per file byte, under every table's write lock).
func TestCheckpointEncodeBounded(t *testing.T) {
	const ceiling = 1.3 // bytes allocated by Checkpoint per byte of checkpoint file
	dir := t.TempDir()
	db, err := Open(notesSchema(t), WithWALDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	loadNotes(t, db, 60_000)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	err = db.Checkpoint()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, ckptName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) < 4*ckptChunkBytes {
		t.Fatalf("checkpoint file is %d bytes; the test wants several chunks", len(got))
	}
	// The oracle encodes the same tables under the header the file carries.
	header, _, st := frame.Next(got[len(ckptMagic):])
	if st != frame.OK {
		t.Fatalf("checkpoint file's first frame: status %d", st)
	}
	c := frame.NewCursor(header[1:], ErrWALCorrupt)
	seq, lsn, maxTxn := c.I64(), c.I64(), c.I64()
	want := encodeCheckpointSingleBuffer(seq, lsn, maxTxn, db.tablesByID)
	if !bytes.Equal(got, want) {
		t.Fatalf("checkpoint file (%d bytes) differs from the single-buffer encoder's (%d bytes)", len(got), len(want))
	}
	ratio := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(got))
	t.Logf("checkpoint file %d bytes, %d allocated by Checkpoint: %.2f per file byte", len(got), after.TotalAlloc-before.TotalAlloc, ratio)
	if ratio > ceiling {
		t.Errorf("Checkpoint allocated %.2f bytes per file byte, ceiling %.1f", ratio, ceiling)
	}
	checkChunks(t, encodeCheckpoint(seq, lsn, maxTxn, db.tablesByID), want)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointChunkEdges: rows larger than a chunk, and a snapshot smaller
// than one, still encode to the single-buffer encoder's bytes.
func TestCheckpointChunkEdges(t *testing.T) {
	db := MustOpen(notesSchema(t))
	checkChunks(t, encodeCheckpoint(3, 9, 1, db.tablesByID), encodeCheckpointSingleBuffer(3, 9, 1, db.tablesByID))
	loadNotes(t, db, 3000)
	txn, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range []int{ckptChunkBytes - 40, 3 * ckptChunkBytes, ckptChunkBytes / 2} {
		body := Str(strings.Repeat("\x00z", n/2))
		if _, err := txn.Insert("notes", []string{"note_id", "body"}, []Value{Int(int64(100_000 + i)), body}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	loadNotesFrom := func(base, n int) {
		txn, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		for i := base; i < base+n; i++ {
			if _, err := txn.Insert("notes", []string{"note_id", "body"}, []Value{Int(int64(i)), Str("tail")}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	loadNotesFrom(200_000, 2000)
	checkChunks(t, encodeCheckpoint(3, 9, 1, db.tablesByID), encodeCheckpointSingleBuffer(3, 9, 1, db.tablesByID))
}

// BenchmarkCheckpointEncode times what a checkpoint does while it holds every
// table's write lock — the encoding — for the chunked encoder and for the
// single-buffer one it replaced.
func BenchmarkCheckpointEncode(b *testing.B) {
	db := MustOpen(notesSchema(b))
	loadNotes(b, db, 120_000)
	b.Run("chunked", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			encodeCheckpoint(1, 1, 1, db.tablesByID)
		}
	})
	b.Run("single-buffer", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			encodeCheckpointSingleBuffer(1, 1, 1, db.tablesByID)
		}
	})
}
