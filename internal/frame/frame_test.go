package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"
)

// samplePayloads covers the shapes the three formats write: a one-byte record
// (the checkpoint end marker), a 17-byte WAL marker, and a longer body.
func samplePayloads() [][]byte {
	long := make([]byte, 300)
	for i := range long {
		long[i] = byte(i * 7)
	}
	return [][]byte{{0x13}, bytes.Repeat([]byte{0x02, 0xAB}, 9)[:17], long}
}

func TestRoundTrip(t *testing.T) {
	var buf []byte
	for _, p := range samplePayloads() {
		buf = Append(buf, p)
	}
	// Begin/Finish must produce the very bytes Append does.
	var built []byte
	for _, p := range samplePayloads() {
		var mark int
		built, mark = Begin(built)
		built = Finish(append(built, p...), mark)
	}
	if !bytes.Equal(buf, built) {
		t.Fatal("Begin/Finish and Append disagree")
	}
	stream := bytes.NewReader(buf)
	for i, want := range samplePayloads() {
		got, rest, st := Next(buf)
		if st != OK || !bytes.Equal(got, want) {
			t.Fatalf("frame %d: Next = %x, %v", i, got, st)
		}
		if len(buf)-len(rest) != HeaderSize+len(want) {
			t.Fatalf("frame %d: consumed %d bytes", i, len(buf)-len(rest))
		}
		buf = rest
		read, err := Read(stream)
		if err != nil || !bytes.Equal(read, want) {
			t.Fatalf("frame %d: Read = %x, %v", i, read, err)
		}
	}
	if len(buf) != 0 {
		t.Fatalf("%d bytes left after the last frame", len(buf))
	}
	if _, err := Read(stream); err != io.EOF {
		t.Fatalf("Read at stream end: %v, want io.EOF", err)
	}
}

// TestEveryTruncationIsShort: a strict prefix of a frame never parses and is
// never mistaken for damage; a stream that ends there ends unexpectedly.
func TestEveryTruncationIsShort(t *testing.T) {
	for _, p := range samplePayloads() {
		f := Append(nil, p)
		for cut := 0; cut < len(f); cut++ {
			if _, rest, st := Next(f[:cut]); st != Short || len(rest) != cut {
				t.Fatalf("payload %d bytes, cut %d: %v (rest %d)", len(p), cut, st, len(rest))
			}
			want := io.ErrUnexpectedEOF
			if cut == 0 {
				want = io.EOF
			}
			if _, err := Read(bytes.NewReader(f[:cut])); err != want {
				t.Fatalf("payload %d bytes, cut %d: Read error %v, want %v", len(p), cut, err, want)
			}
		}
	}
}

// TestEveryBitFlipIsCaught: no single flipped bit yields OK.  A flip that
// grows the length reads as Short (the WAL calls that torn, a stream reader
// waits for bytes that never come and times out); every other flip is Corrupt.
func TestEveryBitFlipIsCaught(t *testing.T) {
	for _, p := range samplePayloads() {
		f := Append(nil, p)
		for i := range f {
			for bit := 0; bit < 8; bit++ {
				mut := append([]byte(nil), f...)
				mut[i] ^= 1 << bit
				if got, _, st := Next(mut); st == OK {
					t.Fatalf("payload %d bytes: flip of byte %d bit %d parsed as %x", len(p), i, bit, got)
				} else if i >= 4 && st != Corrupt {
					t.Fatalf("payload %d bytes: CRC/payload flip at byte %d is %v, want Corrupt", len(p), i, st)
				}
				if _, err := Read(bytes.NewReader(mut)); err == nil {
					t.Fatalf("payload %d bytes: Read accepted flip of byte %d bit %d", len(p), i, bit)
				}
			}
		}
	}
}

// TestBadLengthIsCorrupt: zero and oversized lengths are damage whatever
// follows them — in particular a run of zero bytes, whose "frame" would
// otherwise pass (CRC32 of nothing is zero).
func TestBadLengthIsCorrupt(t *testing.T) {
	oversized := binary.LittleEndian.AppendUint32(nil, MaxPayload+1)
	for name, buf := range map[string][]byte{
		"zero-filled":     make([]byte, 4096),
		"empty payload":   Append(nil, nil),
		"oversized":       append(oversized, 0, 0, 0, 0),
		"oversized, more": append(oversized, make([]byte, 64)...),
	} {
		if _, rest, st := Next(buf); st != Corrupt || len(rest) != len(buf) {
			t.Errorf("%s: Next = %v", name, st)
		}
		if _, err := Read(bytes.NewReader(buf)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Read error %v, want ErrCorrupt", name, err)
		}
	}
	if !checkLen(MaxPayload) || checkLen(MaxPayload+1) || checkLen(0) || !checkLen(1) {
		t.Error("length bounds are not [1, MaxPayload]")
	}
}

var errSentinel = errors.New("test: corrupt")

func TestCursorFields(t *testing.T) {
	var b []byte
	b = append(b, 0x7f, 1, 0)
	b = binary.LittleEndian.AppendUint32(b, 0xdeadbeef)
	b = binary.LittleEndian.AppendUint64(b, math.MaxUint64-1)
	b = binary.LittleEndian.AppendUint64(b, uint64(1<<63)) // math.MinInt64
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(-2.5))
	b = binary.LittleEndian.AppendUint32(b, 3)
	b = append(b, "abc"...)
	b = binary.LittleEndian.AppendUint32(b, 2) // count of 2-byte elements
	b = append(b, 1, 2, 3, 4)

	c := NewCursor(b, errSentinel)
	if c.U8() != 0x7f || !c.Bool() || c.Bool() || c.U32() != 0xdeadbeef || c.U64() != math.MaxUint64-1 ||
		c.I64() != math.MinInt64 || c.F64() != -2.5 || string(c.Bytes(int(c.U32()))) != "abc" {
		t.Fatal("field mismatch")
	}
	if n := c.Count(2); n != 2 {
		t.Fatalf("Count = %d, want 2", n)
	}
	c.Bytes(4)
	if err := c.Done(); err != nil {
		t.Fatalf("Done after exact consumption: %v", err)
	}
}

// TestCursorLatches: the first failure sticks, every later read is a zero
// value, and Done reports that first failure under the cursor's sentinel.
func TestCursorLatches(t *testing.T) {
	c := NewCursor([]byte{1, 2, 3}, errSentinel)
	if c.U32() != 0 { // 3 bytes left, 4 wanted
		t.Fatal("truncated U32 returned a value")
	}
	first := c.Done()
	if !errors.Is(first, errSentinel) {
		t.Fatalf("Done = %v, want the sentinel", first)
	}
	if c.U8() != 0 || c.Bool() || c.U64() != 0 || c.Bytes(1) != nil || c.Count(1) != 0 {
		t.Fatal("read after failure returned a value")
	}
	c.Fail(errors.New("later"))
	if c.Done() != first {
		t.Fatalf("a later failure replaced the first: %v", c.Done())
	}

	for name, tc := range map[string]struct {
		payload []byte
		read    func(*Cursor)
	}{
		"trailing bytes":  {[]byte{1, 2}, func(c *Cursor) { c.U8() }},
		"bad bool":        {[]byte{2}, func(c *Cursor) { c.Bool() }},
		"count > payload": {[]byte{3, 0, 0, 0, 9, 9}, func(c *Cursor) { c.Count(1) }},
		"huge count":      {[]byte{0xff, 0xff, 0xff, 0xff}, func(c *Cursor) { c.Count(48) }},
		"negative length": {[]byte{1}, func(c *Cursor) { c.Bytes(-1) }},
		"caller failure":  {nil, func(c *Cursor) { c.Fail(errSentinel) }},
	} {
		c := NewCursor(tc.payload, errSentinel)
		tc.read(c)
		if err := c.Done(); !errors.Is(err, errSentinel) {
			t.Errorf("%s: Done = %v, want the sentinel", name, err)
		}
	}
}

// FuzzFrame is the framing half of what FuzzWireDecode and FuzzWALRecordDecode
// used to do twice: on arbitrary bytes Next never panics, never returns OK
// for a frame Append would not have written, and agrees with Read.  The seed
// corpus (testdata/fuzz/FuzzFrame) holds real streams: relstore's
// parent-written log segment and checkpoint (relstore/testdata/parent_wal),
// a segment cut mid-frame, and two frames a fleet sent.
func FuzzFrame(f *testing.F) {
	for _, p := range samplePayloads() {
		f.Add(Append(nil, p))
	}
	f.Add([]byte{})
	f.Add(make([]byte, 64))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Add(append(Append(nil, []byte{1}), Append(nil, []byte{2, 3})...))
	f.Fuzz(func(t *testing.T, data []byte) {
		stream := bytes.NewReader(data)
		for buf := data; ; {
			payload, rest, st := Next(buf)
			read, err := Read(stream)
			if st != OK {
				if len(rest) != len(buf) {
					t.Fatalf("%v consumed %d bytes", st, len(buf)-len(rest))
				}
				if err == nil {
					t.Fatalf("Next says %v, Read returned %x", st, read)
				}
				if (st == Corrupt) != errors.Is(err, ErrCorrupt) {
					t.Fatalf("Next says %v, Read says %v", st, err)
				}
				return
			}
			if len(payload) == 0 || len(payload) > MaxPayload {
				t.Fatalf("OK with a %d-byte payload", len(payload))
			}
			if err != nil || !bytes.Equal(read, payload) {
				t.Fatalf("Next OK (%x), Read = %x, %v", payload, read, err)
			}
			if !bytes.Equal(Append(nil, payload), buf[:len(buf)-len(rest)]) {
				t.Fatal("accepted frame is not what Append writes")
			}
			buf = rest
		}
	})
}
