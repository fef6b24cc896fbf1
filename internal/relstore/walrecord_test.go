package relstore

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"skyloader/internal/frame"
)

// randWALValue draws one Value covering every kind the row codec must carry,
// including NaN floats (which the index key codec rejects).
func randWALValue(rng *rand.Rand) Value {
	switch rng.Intn(6) {
	case 0:
		return Value{} // null
	case 1:
		return Int(rng.Int63() - rng.Int63())
	case 2:
		switch rng.Intn(5) {
		case 0:
			return Float(math.NaN())
		case 1:
			return Float(math.Inf(1))
		case 2:
			return Float(math.Inf(-1))
		case 3:
			return Float(math.Copysign(0, -1))
		default:
			return Float(rng.NormFloat64() * 1e6)
		}
	case 3:
		b := make([]byte, rng.Intn(24))
		rng.Read(b)
		return Str(string(b))
	case 4:
		return Bool(rng.Intn(2) == 0)
	default:
		return Time(time.Unix(0, rng.Int63()>>10))
	}
}

// walValueEqual compares decoded values against their originals.  NaN must
// round-trip (compared by bits); negative zero is the one float the codec
// canonicalizes (to +0, as the order-preserving encoding requires -0 == +0),
// which is invisible to every comparison and key built from the row.
func walValueEqual(a, b Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case KindFloat:
		if math.IsNaN(a.F) || math.IsNaN(b.F) {
			return math.IsNaN(a.F) && math.IsNaN(b.F) &&
				math.Float64bits(a.F) == math.Float64bits(b.F)
		}
		return a.F == b.F
	case KindString:
		return a.S == b.S
	default:
		return a.I == b.I
	}
}

// TestWALRecordRoundTrip is the encode→decode property test: for every record
// type, a decode of the framed encoding yields back exactly what was encoded,
// and every strict prefix of the frame reads as a torn tail, never as a
// record.
func TestWALRecordRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 500; iter++ {
		lsn := rng.Int63n(1 << 40)
		txn := rng.Int63n(1 << 40)
		var payload []byte
		var wantRows []Row
		typ := byte(1 + rng.Intn(3))
		switch typ {
		case walRecInsert:
			tableID := uint32(rng.Intn(8))
			firstID := rng.Int63n(1 << 30)
			wantRows = make([]Row, 1+rng.Intn(4))
			for i := range wantRows {
				row := make(Row, 1+rng.Intn(6))
				for j := range row {
					row[j] = randWALValue(rng)
				}
				wantRows[i] = row
			}
			payload, _ = appendWALInsertBounded(nil, lsn, tableID, txn, firstID, wantRows)
		default:
			payload = appendWALMarker(nil, typ, lsn, txn)
		}
		framed := frame.Append(nil, payload)

		got, rest, st := frame.Next(framed)
		if st != frame.OK || len(rest) != 0 {
			t.Fatalf("iter %d: framing round-trip failed (status=%v rest=%d)", iter, st, len(rest))
		}
		rec, err := decodeWALRecord(got, math.MaxInt)
		if err != nil {
			t.Fatalf("iter %d: decode: %v", iter, err)
		}
		if rec.typ != typ || rec.lsn != lsn || rec.txnID != txn {
			t.Fatalf("iter %d: header mismatch: %+v", iter, rec)
		}
		if typ == walRecInsert {
			var rb rowBuf
			if err := rb.addRecord(&rec); err != nil {
				t.Fatalf("iter %d: decode rows: %v", iter, err)
			}
			rows := rb.rows
			if len(rows) != len(wantRows) || rec.rowCount != len(wantRows) {
				t.Fatalf("iter %d: %d rows decoded, want %d", iter, len(rows), len(wantRows))
			}
			for i, want := range wantRows {
				if len(rows[i]) != len(want) {
					t.Fatalf("iter %d row %d: width %d, want %d", iter, i, len(rows[i]), len(want))
				}
				if rb.ids[i] != rec.firstID+int64(i) {
					t.Fatalf("iter %d row %d: id %d, want %d", iter, i, rb.ids[i], rec.firstID+int64(i))
				}
				for j := range want {
					if !walValueEqual(rows[i][j], want[j]) {
						t.Fatalf("iter %d row %d col %d: %+v != %+v", iter, i, j, rows[i][j], want[j])
					}
				}
			}
		}

		// Torn-tail property: no strict prefix of the frame parses.
		for cut := 0; cut < len(framed); cut++ {
			if _, _, st := frame.Next(framed[:cut]); st == frame.OK {
				t.Fatalf("iter %d: %d-byte prefix of a %d-byte frame parsed as a record", iter, cut, len(framed))
			}
		}
		// Corruption property: no single flipped byte passes the CRC.
		if len(framed) > 0 {
			pos := rng.Intn(len(framed))
			mut := append([]byte(nil), framed...)
			mut[pos] ^= 1 << uint(rng.Intn(8))
			if p, _, st := frame.Next(mut); st == frame.OK {
				// A flip inside the length prefix can still frame a shorter,
				// CRC-valid record only if the CRC happens to match — with
				// CRC32 over these payloads it must not.
				t.Fatalf("iter %d: bit flip at %d went undetected (payload %d bytes)", iter, pos, len(p))
			}
		}
	}
}

// FuzzWALRecordDecode asserts the record decoder is total: arbitrary payload
// bytes never panic it, with or without a table count to enforce, nor the
// decode of an accepted insert record's rows.  The framing half — lengths, CRCs, truncation —
// is internal/frame's FuzzFrame; here a seed's frames are peeled off and every
// other input is decoded as one bare payload, so mutations reach the field
// decoders instead of dying at the CRC.  The seed corpus
// (testdata/fuzz/FuzzWALRecordDecode) holds testdata/parent_wal's segments
// whole and one frame of each record type cut from them.
func FuzzWALRecordDecode(f *testing.F) {
	insert, _ := appendWALInsertBounded(nil, 3, 0, 7, 100,
		[]Row{{Int(1), Float(math.NaN()), Str("x"), Value{}}})
	f.Add([]byte{})
	f.Add(frame.Append(nil, appendWALMarker(nil, walRecCommit, 1, 7)))
	f.Add(frame.Append(nil, appendWALMarker(nil, walRecRollback, 2, 7)))
	f.Add(frame.Append(nil, insert))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		decode := func(payload []byte) {
			rec, err := decodeWALRecord(payload, math.MaxInt)
			if err == nil && rec.typ == walRecInsert {
				var rb rowBuf
				if rb.addRecord(&rec) == nil && len(rb.rows) != rec.rowCount {
					t.Fatalf("insert record decoded %d rows, header says %d", len(rb.rows), rec.rowCount)
				}
			}
			// Table id enforcement must be just as total.
			_, _ = decodeWALRecord(payload, 3)
		}
		decode(data)
		for buf := data; ; {
			payload, rest, st := frame.Next(buf)
			if st != frame.OK {
				break
			}
			decode(payload)
			buf = rest
		}
	})
}

// BenchmarkWALReplay measures crash-recovery throughput over a log of small
// transactions, with and without a checkpoint bounding the replayed suffix.
func BenchmarkWALReplay(b *testing.B) {
	const frames, objsPerFrame = 64, 50
	build := func(b *testing.B, checkpoint bool) (string, *Schema) {
		b.Helper()
		dir := b.TempDir()
		schema := testSchema(b)
		db, err := Open(schema, WithWALDir(dir))
		if err != nil {
			b.Fatal(err)
		}
		for f := int64(1); f <= frames; f++ {
			txn, err := db.Begin()
			if err != nil {
				b.Fatal(err)
			}
			if _, err := txn.Insert("frames", []string{"frame_id", "exposure"},
				[]Value{Int(f), Float(1.5)}); err != nil {
				b.Fatal(err)
			}
			rows := make([][]Value, 0, objsPerFrame)
			for o := int64(0); o < objsPerFrame; o++ {
				rows = append(rows, []Value{Int(f*1000 + o), Int(f), Float(float64(o % 30))})
			}
			if _, err := txn.InsertBatch("objects", []string{"object_id", "frame_id", "mag"}, rows); err != nil {
				b.Fatal(err)
			}
			if _, err := txn.Commit(); err != nil {
				b.Fatal(err)
			}
			if checkpoint && f == frames {
				if err := db.Checkpoint(); err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := db.Close(); err != nil {
			b.Fatal(err)
		}
		return dir, schema
	}
	for _, bc := range []struct {
		name       string
		checkpoint bool
	}{
		{"log-only", false},
		{"checkpointed", true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			dir, schema := build(b, bc.checkpoint)
			totalRows := int64(frames * (1 + objsPerFrame))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, rep, err := Recover(schema, dir)
				if err != nil {
					b.Fatal(err)
				}
				if rep.ReplayedRows+rep.CheckpointRows != totalRows {
					b.Fatalf("recovered %d rows, want %d", rep.ReplayedRows+rep.CheckpointRows, totalRows)
				}
				if err := got.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(totalRows*int64(b.N))/b.Elapsed().Seconds(), "rows/s")
		})
	}
}
