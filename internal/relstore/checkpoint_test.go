package relstore

import (
	"bytes"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"skyloader/internal/frame"
)

// notesSchema is one table whose rows vary in encoded size: a nullable
// string (any bytes, NULs included) and a nullable float (NaN included);
// and one without a string column, whose closed pages take the heap's narrow
// form.
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
	}, &TableSchema{
		Name: "marks",
		Columns: []Column{
			{Name: "mark_id", Type: TypeInt},
			{Name: "n", Type: TypeInt, Nullable: true},
			{Name: "mag", Type: TypeFloat, Nullable: true, Precision: 3},
			{Name: "at", Type: TypeTime},
			{Name: "ok", Type: TypeBool},
		},
		PrimaryKey: []string{"mark_id"},
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

// loadMarks commits n rows of marks: n NULL in every third row and spanning
// the whole int64 range in rows 500 and 501, mag on its three places but for
// an awkward float every 97th row and NULL every 13th, and constant flags.
func loadMarks(t testing.TB, db *DB, n int) {
	t.Helper()
	txn, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		nv, mag := Int(int64(i*i%1000)-300), Float(RoundTo(float64(i%4000)/7, 3))
		switch {
		case i == 500:
			nv = Int(math.MinInt64)
		case i == 501:
			nv = Int(math.MaxInt64)
		case i%3 == 0:
			nv = Null
		}
		switch {
		case i%97 == 0:
			mag = Float(awkwardFloats[(i/97)%len(awkwardFloats)])
		case i%13 == 0:
			mag = Null
		}
		row := []Value{Int(int64(i)), nv, mag, {Kind: KindTime, I: 1_100_000_000_000_000_000 + int64(i)*1e6}, Bool(true)}
		if _, err := txn.Insert("marks", []string{"mark_id", "n", "mag", "at", "ok"}, row); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
}

// checkpointDigest is the fnv-64a sum of a checkpoint's bytes.
func checkpointDigest(chunks ...[]byte) uint64 {
	h := fnv.New64a()
	for _, c := range chunks {
		h.Write(c)
	}
	return h.Sum64()
}

// checkChunks fails unless chunks have the digest want, are cut only
// between frames, and each was well filled before the next was opened
// (unless the next was made larger for a row no chunk could hold).  The
// digests were recorded while the single-buffer encoder the chunked one
// replaced still produced the same bytes.
func checkChunks(t *testing.T, chunks [][]byte, want uint64) {
	t.Helper()
	if got := checkpointDigest(chunks...); got != want {
		t.Fatalf("checkpoint digest %#x, want %#x", got, want)
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

// TestCheckpointEncodeBounded: the checkpoint file is the bytes it was when a
// single-buffer encoder wrote it, its chunks are the file, and a checkpoint
// allocates
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
	loadMarks(t, db, 20_000)

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
	// The chunks encode the same tables under the header the file carries.
	header, _, st := frame.Next(got[len(ckptMagic):])
	if st != frame.OK {
		t.Fatalf("checkpoint file's first frame: status %d", st)
	}
	c := frame.NewCursor(header[1:], ErrWALCorrupt)
	seq, lsn, maxTxn := c.I64(), c.I64(), c.I64()
	chunks := encodeCheckpoint(seq, lsn, maxTxn, db.tablesByID)
	if !bytes.Equal(bytes.Join(chunks, nil), got) {
		t.Fatalf("checkpoint chunks differ from the %d-byte file", len(got))
	}
	checkChunks(t, chunks, 0xf2eca0d92e498f73)
	ratio := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(got))
	t.Logf("checkpoint file %d bytes, %d allocated by Checkpoint: %.2f per file byte", len(got), after.TotalAlloc-before.TotalAlloc, ratio)
	if ratio > ceiling {
		t.Errorf("Checkpoint allocated %.2f bytes per file byte, ceiling %.1f", ratio, ceiling)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointChunkEdges: rows larger than a chunk, and a snapshot smaller
// than one, still encode to the bytes the single-buffer encoder wrote.
func TestCheckpointChunkEdges(t *testing.T) {
	db := MustOpen(notesSchema(t))
	checkChunks(t, encodeCheckpoint(3, 9, 1, db.tablesByID), 0xca5633ee4692ddb8)
	loadNotes(t, db, 3000)
	loadMarks(t, db, 5000)
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
	checkChunks(t, encodeCheckpoint(3, 9, 1, db.tablesByID), 0x6abe7e7e787c73e)
}

// BenchmarkCheckpointEncode times what a checkpoint does while it holds every
// table's write lock: the encoding.
func BenchmarkCheckpointEncode(b *testing.B) {
	db := MustOpen(notesSchema(b))
	loadNotes(b, db, 120_000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		encodeCheckpoint(1, 1, 1, db.tablesByID)
	}
}
