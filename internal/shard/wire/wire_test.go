package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"skyloader/internal/frame"
	"skyloader/internal/queries"
)

// sampleMessages returns one representative of every message type,
// including empty and boundary field values.
func sampleMessages() []Msg {
	return []Msg{
		Hello{ShardID: 0, Shards: 1, RangeLo: 8 << 40, RangeHi: (16 << 40) - 1},
		Hello{ShardID: 3, Shards: 100, RangeLo: -1, RangeHi: math.MaxInt64, Deferred: true},
		Ready{ShardID: 7, Ready: true, Rows: 123456},
		Ready{},
		LoadTask{TaskID: 42, Name: "mega_0001.cat", RABase: 187.25, DecBase: -12.5,
			NominalBytes: 1 << 20,
			Text:         "OBJ|1|2|3.5|4.5|18.2|0.01|1.1|0.2|0\n\n# comment\r\nFNG|7|1|2|3|4|5"},
		LoadTask{TaskID: 43, Seal: true},
		LoadResult{TaskID: 42, ShardID: 2, RowsLoaded: 99, RowsSkipped: 7, Err: "boom"},
		Query{QueryID: 1, Kind: KindCone, RA: 123.456, Dec: -45.5, Radius: 0.25},
		Query{QueryID: 2, Kind: KindLookup, ID: 100000001},
		Query{QueryID: 3, Kind: KindFrame, ID: 17},
		Query{QueryID: 4, Kind: KindMagHist, Bin: 0.5},
		QueryResult{QueryID: 1, Stats: queries.Stats{RowsExamined: 10, RowsReturned: 2, UsedIndex: true, TrixelsScanned: 3},
			Objects: []queries.Object{
				{ObjectID: 1, FrameID: 2, RA: 3.25, Dec: -4.5, HTMID: 1 << 42, Mag: 18.5},
				{ObjectID: 9, FrameID: 8, RA: 359.999999, Dec: 89.5, HTMID: 15 << 40, Mag: 22.1},
			}},
		QueryResult{QueryID: 5, Err: "shard down"},
		QueryResult{QueryID: 6, Bins: []queries.MagnitudeBin{{Low: 18, High: 18.5, Count: 12}, {Low: 18.5, High: 19, Count: 0}}},
		Stats{ShardID: 1, Ready: true, Rows: 5000, RowsLoaded: 5100, QueriesServed: 77},
	}
}

func TestRoundTrip(t *testing.T) {
	for i, m := range sampleMessages() {
		buf := Append(nil, m)
		got, n, err := Decode(buf)
		if err != nil {
			t.Fatalf("msg %d (%T): decode: %v", i, m, err)
		}
		if n != len(buf) {
			t.Fatalf("msg %d: consumed %d of %d bytes", i, n, len(buf))
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("msg %d round-trip mismatch:\n got %#v\nwant %#v", i, got, m)
		}
	}
}

func TestRoundTripConcatenated(t *testing.T) {
	msgs := sampleMessages()
	var buf []byte
	for _, m := range msgs {
		buf = Append(buf, m)
	}
	for i := 0; len(buf) > 0; i++ {
		m, n, err := Decode(buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(m, msgs[i]) {
			t.Fatalf("frame %d mismatch: %#v", i, m)
		}
		buf = buf[n:]
	}
}

// TestAppendLoadTaskInPlace: a task whose text is written into the frame
// piece by piece is byte for byte the task Append encodes from a Text built
// first, and rebuilding it in the same buffer allocates nothing; one past the
// frame limit is refused before fill is called; and the text that decodes from a frame is
// a window of it, not a copy.
func TestAppendLoadTaskInPlace(t *testing.T) {
	lines := []string{"FRM|1|2|3|4.5|60|1.4|820.5|24.1\n", "\n", "OBJ|1|2|3.5|4.5|18.2|0.01|1.1|0.2|0\r\n", "# no newline after this"}
	task := LoadTask{TaskID: 7, Name: "mega_0002.cat", RABase: 12.5, DecBase: -3.25, NominalBytes: 99}
	whole := task
	for _, ln := range lines {
		whole.Text += ln
	}
	prefix := []byte("earlier frames")
	fill := func(dst []byte) []byte {
		for _, ln := range lines {
			dst = append(dst, ln...)
		}
		return dst
	}
	got, err := AppendLoadTask(append([]byte(nil), prefix...), task, len(whole.Text), fill)
	if want := Append(prefix, whole); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("in-place frame differs from Append's (%v):\n got %x\nwant %x", err, got, want)
	}
	if n := testing.AllocsPerRun(20, func() { got, _ = AppendLoadTask(got[:0], task, len(whole.Text), fill) }); n != 0 {
		t.Errorf("building the frame again in its buffer took %.0f allocations", n)
	}
	frame := got
	if _, err := AppendLoadTask(nil, task, MaxMessageBytes, fill); err == nil {
		t.Fatal("a task one name and 42 bytes over the frame limit was accepted")
	}
	m, _, err := Decode(frame)
	if err != nil || !reflect.DeepEqual(m, whole) {
		t.Fatalf("decode: %v, %#v", err, m)
	}
	at := bytes.Index(frame, []byte("FRM|"))
	frame[at] = 'X'
	if text := m.(LoadTask).Text; text[0] != 'X' {
		t.Fatalf("decoded text %q does not alias the frame", text[:8])
	}
	if TypeOf(frame) != TypeLoadTask || TypeOf(frame[:FrameHeader]) != 0 {
		t.Fatalf("TypeOf: %#x for the frame, %#x for its bare header", TypeOf(frame), TypeOf(frame[:FrameHeader]))
	}
}

// TestOldLoadTaskLayoutIsCorrupt: a LoadTask frame captured from the build
// before this layout (a count, then a length prefix per line; testdata/
// loadtask_lines_layout.frame carries three lines) passes the CRC and must
// not decode to a task with the wrong text.  Its line count reads as a text
// length, and the bytes after that many are trailing garbage: every line
// carries at least its four-byte prefix, so n lines never leave exactly n
// bytes.
func TestOldLoadTaskLayoutIsCorrupt(t *testing.T) {
	old, err := os.ReadFile("testdata/loadtask_lines_layout.frame")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, st := frame.Next(old); st != frame.OK || TypeOf(old) != TypeLoadTask {
		t.Fatalf("the captured frame is not a whole LoadTask frame (status %d, type %#x)", st, TypeOf(old))
	}
	if m, _, err := Decode(old); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("old-layout frame decoded to %#v, %v; want ErrCorrupt", m, err)
	}
	if m, _, err := ReadMsg(bytes.NewReader(old)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("old-layout frame read as %#v, %v; want ErrCorrupt", m, err)
	}
}

// TestBitFlipNeverPasses flips every bit of every sample frame in turn;
// no flipped frame may decode back to the original message, and payload
// flips must be caught by the CRC.
func TestBitFlipNeverPasses(t *testing.T) {
	for mi, m := range sampleMessages() {
		buf := Append(nil, m)
		for byteIdx := 0; byteIdx < len(buf); byteIdx++ {
			for bit := 0; bit < 8; bit++ {
				mut := append([]byte(nil), buf...)
				mut[byteIdx] ^= 1 << bit
				got, _, err := Decode(mut)
				if err == nil && reflect.DeepEqual(got, m) {
					t.Fatalf("msg %d: flip byte %d bit %d decoded back to the original", mi, byteIdx, bit)
				}
				if byteIdx >= FrameHeader && err == nil {
					t.Fatalf("msg %d: payload flip at byte %d bit %d passed the CRC", mi, byteIdx, bit)
				}
			}
		}
	}
}

func TestShortFrames(t *testing.T) {
	buf := Append(nil, Stats{ShardID: 1, Rows: 10})
	for cut := 0; cut < len(buf); cut++ {
		_, _, err := Decode(buf[:cut])
		if !errors.Is(err, ErrShort) {
			t.Fatalf("cut %d: got %v, want ErrShort", cut, err)
		}
	}
}

func TestTrailingGarbageRejected(t *testing.T) {
	buf := Append(nil, Ready{ShardID: 1, Ready: true, Rows: 1})
	// Extend the payload (and re-frame it) so fields decode but bytes remain:
	// a non-canonical frame must be corrupt, not silently accepted.
	payload := append(append([]byte(nil), buf[FrameHeader:]...), 0xAB)
	if _, _, err := Decode(frame.Append(nil, payload)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing byte: got %v, want ErrCorrupt", err)
	}
}

func TestStreamReadWrite(t *testing.T) {
	msgs := sampleMessages()
	var buf bytes.Buffer
	for _, m := range msgs {
		buf.Write(Append(nil, m))
	}
	for i := range msgs {
		m, _, err := ReadMsg(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(m, msgs[i]) {
			t.Fatalf("frame %d mismatch", i)
		}
	}
	if _, _, err := ReadMsg(&buf); err != io.EOF {
		t.Fatalf("got %v, want io.EOF at stream end", err)
	}
}

func TestQueryConversionRoundTrip(t *testing.T) {
	qs := []queries.Query{
		queries.Cone{RA: 10, Dec: 20, RadiusDeg: 0.5},
		queries.ObjectLookup{ObjectID: 100000123},
		queries.FrameObjects{FrameID: 44},
		queries.MagHistogram{BinWidth: 0.25},
	}
	for i, q := range qs {
		wq, err := FromQuery(uint64(i), q)
		if err != nil {
			t.Fatal(err)
		}
		back, err := wq.ToQuery()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, q) {
			t.Fatalf("query %d: %#v != %#v", i, back, q)
		}
	}
}

// FuzzWireDecode exercises the total payload decoder on arbitrary bytes: it
// must never panic, and anything it accepts must re-encode to identical bytes
// (canonical encoding).  The framing half — lengths, CRCs, truncation — is
// internal/frame's FuzzFrame; here a seed's frame is peeled off and every
// other input is decoded as a bare payload, so mutations reach the field
// decoders instead of dying at the CRC.
func FuzzWireDecode(f *testing.F) {
	for _, m := range sampleMessages() {
		f.Add(Append(nil, m))
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})
	rng := rand.New(rand.NewSource(11))
	junk := make([]byte, 256)
	rng.Read(junk)
	f.Add(junk)
	f.Fuzz(func(t *testing.T, data []byte) {
		payload := data
		if p, _, st := frame.Next(data); st == frame.OK {
			payload = p
		}
		m, err := decodePayload(payload)
		if err != nil {
			return
		}
		if re := Append(nil, m); !bytes.Equal(re[FrameHeader:], payload) {
			t.Fatalf("accepted payload is not canonical:\n in  %x\n out %x", payload, re[FrameHeader:])
		}
	})
}
