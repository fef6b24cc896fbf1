package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
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
			Lines:        []string{"OBJ|1|2|3.5|4.5|18.2|0.01|1.1|0.2|0", "", "# comment"}},
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
		if _, err := WriteMsg(&buf, m); err != nil {
			t.Fatal(err)
		}
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
		m, err := DecodePayload(payload)
		if err != nil {
			return
		}
		if re := Append(nil, m); !bytes.Equal(re[FrameHeader:], payload) {
			t.Fatalf("accepted payload is not canonical:\n in  %x\n out %x", payload, re[FrameHeader:])
		}
	})
}
