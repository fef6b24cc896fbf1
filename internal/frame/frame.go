// Package frame is the one byte layer under everything this repository writes
// to a disk or a socket — WAL segments and checkpoint files (internal/relstore)
// and the coordinator/agent protocol (internal/shard/wire): a sequence of
//
//	[u32 LE payload length][u32 LE CRC32-IEEE of payload][payload]
//
// whose payloads are fixed-width little-endian fields and length-prefixed byte
// strings, read back through a Cursor.
//
// Damage presents in two ways, and each format decides what the difference
// means (PERFORMANCE.md, "Byte layer").  Short: the bytes end before the frame
// does.  Corrupt: the frame is whole and wrong — a CRC mismatch, or a length
// beyond MaxPayload or of zero.  No writer emits an empty payload, and CRC32 of
// nothing is zero, so refusing one is what catches a zero-filled tail.
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

const (
	// HeaderSize is the byte size of the length+CRC prefix.
	HeaderSize = 8
	// MaxPayload bounds one payload.  A length prefix beyond it is corruption,
	// never an allocation request.
	MaxPayload = 64 << 20
)

// ErrCorrupt is what Read reports for a whole but damaged frame.
var ErrCorrupt = errors.New("frame: corrupt frame")

// Status classifies the bytes at the head of a buffer.
type Status uint8

const (
	// OK: a whole frame whose CRC matches.
	OK Status = iota
	// Short: the buffer ends before the frame does.
	Short
	// Corrupt: zero or oversized length, or CRC mismatch.
	Corrupt
)

// Append frames payload onto dst.
func Append(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

// Begin reserves a frame header at the end of dst so the payload can be built
// in place behind it; pass the returned mark to Finish once it is.
func Begin(dst []byte) (out []byte, mark int) {
	return append(dst, 0, 0, 0, 0, 0, 0, 0, 0), len(dst)
}

// Finish fills in the header reserved by Begin at mark for the payload that
// now follows it.
func Finish(dst []byte, mark int) []byte {
	payload := dst[mark+HeaderSize:]
	binary.LittleEndian.PutUint32(dst[mark:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[mark+4:], crc32.ChecksumIEEE(payload))
	return dst
}

func checkLen(n uint32) bool { return n != 0 && n <= MaxPayload }

// Next parses one frame off the front of buf.  On OK it returns the payload
// (aliasing buf) and the bytes after the frame; otherwise rest is buf.
func Next(buf []byte) (payload, rest []byte, st Status) {
	if len(buf) < HeaderSize {
		return nil, buf, Short
	}
	n := binary.LittleEndian.Uint32(buf)
	if !checkLen(n) {
		return nil, buf, Corrupt
	}
	if uint64(len(buf)-HeaderSize) < uint64(n) {
		return nil, buf, Short
	}
	payload = buf[HeaderSize : HeaderSize+int(n)]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(buf[4:]) {
		return nil, buf, Corrupt
	}
	return payload, buf[HeaderSize+int(n):], OK
}

// Read reads one frame from r and returns its payload.  A stream that ends
// cleanly between frames gives io.EOF, one that ends inside a frame
// io.ErrUnexpectedEOF, and a damaged frame an error wrapping ErrCorrupt.
func Read(r io.Reader) ([]byte, error) {
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if !checkLen(n) {
		return nil, fmt.Errorf("%w: payload length %d", ErrCorrupt, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	want := binary.LittleEndian.Uint32(hdr[4:])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("%w: CRC mismatch (got %08x want %08x)", ErrCorrupt, got, want)
	}
	return payload, nil
}

// Cursor is a bounds-checked reader over one payload.  The first failed read
// latches an error wrapping the sentinel the cursor was made with; every read
// after it returns a zero value, so a decoder reads all its fields
// unconditionally and checks Done once.
type Cursor struct {
	b        []byte
	off      int
	err      error
	sentinel error
}

// NewCursor returns a cursor over payload whose own errors wrap sentinel.
func NewCursor(payload []byte, sentinel error) *Cursor {
	return &Cursor{b: payload, sentinel: sentinel}
}

// Fail latches err unless an earlier error already is.
func (c *Cursor) Fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// Done returns the latched error, or an error when bytes remain unread: the
// encodings are canonical, so a valid payload is consumed exactly.
func (c *Cursor) Done() error {
	if c.err == nil && c.off != len(c.b) {
		c.err = fmt.Errorf("%w: %d trailing bytes", c.sentinel, len(c.b)-c.off)
	}
	return c.err
}

// Bytes returns the next n bytes, aliasing the payload.
func (c *Cursor) Bytes(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || len(c.b)-c.off < n {
		c.err = fmt.Errorf("%w: truncated payload at offset %d", c.sentinel, c.off)
		return nil
	}
	s := c.b[c.off : c.off+n : c.off+n]
	c.off += n
	return s
}

// U8 reads one byte.
func (c *Cursor) U8() byte {
	if s := c.Bytes(1); s != nil {
		return s[0]
	}
	return 0
}

// Bool reads one byte that must be 0 or 1.
func (c *Cursor) Bool() bool {
	v := c.U8()
	if v > 1 {
		c.Fail(fmt.Errorf("%w: bad bool byte", c.sentinel))
	}
	return v == 1
}

// U32 reads a little-endian uint32.
func (c *Cursor) U32() uint32 {
	if s := c.Bytes(4); s != nil {
		return binary.LittleEndian.Uint32(s)
	}
	return 0
}

// U64 reads a little-endian uint64.
func (c *Cursor) U64() uint64 {
	if s := c.Bytes(8); s != nil {
		return binary.LittleEndian.Uint64(s)
	}
	return 0
}

// I64 reads a little-endian two's-complement int64.
func (c *Cursor) I64() int64 { return int64(c.U64()) }

// F64 reads an IEEE-754 float64 stored as its little-endian bits.
func (c *Cursor) F64() float64 { return math.Float64frombits(c.U64()) }

// Count reads a u32 element count and checks it against the bytes left, given
// the smallest encoding of one element, so a corrupt count can never drive a
// huge allocation.
func (c *Cursor) Count(minElem int) int {
	n := int(c.U32()) // 0 after a failed read, which passes the check below
	if n*minElem > len(c.b)-c.off {
		c.Fail(fmt.Errorf("%w: element count %d exceeds payload", c.sentinel, n))
		return 0
	}
	return n
}
