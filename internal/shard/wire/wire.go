// Package wire is the framed, typed message protocol between the shard
// coordinator and its agents.
//
// Every message travels in one internal/frame frame (length, CRC32, payload
// — the framing WAL segments and checkpoint files share), and the payload
// starts with a one-byte message type followed by fixed-width little-endian
// fields and length-prefixed strings read through a frame.Cursor.  The decoder
// is total: arbitrary bytes produce an error, never a panic, and a frame
// whose bytes were flipped in transit fails the CRC before any field is
// interpreted.  ErrShort (incomplete frame — wait for more bytes) is
// distinguished from ErrCorrupt (framing or payload damage) so stream
// readers can reassemble partial reads without masking real corruption.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"unsafe"

	"skyloader/internal/frame"
	"skyloader/internal/queries"
)

// FrameHeader is the fixed byte size of the length+CRC frame prefix.
const FrameHeader = frame.HeaderSize

// MaxMessageBytes bounds a single framed payload.  A length prefix beyond it
// is treated as corruption rather than an allocation request.
const MaxMessageBytes = frame.MaxPayload

// Message type bytes (first payload byte).
const (
	TypeHello       byte = 0x01
	TypeReady       byte = 0x02
	TypeLoadTask    byte = 0x03
	TypeLoadResult  byte = 0x04
	TypeQuery       byte = 0x05
	TypeQueryResult byte = 0x06
	TypeStats       byte = 0x07
)

// Query kind bytes inside a Query message.
const (
	KindCone    byte = 1
	KindLookup  byte = 2
	KindFrame   byte = 3
	KindMagHist byte = 4
)

var (
	// ErrShort reports an incomplete frame: the buffer ends before the
	// frame does.  Stream readers should read more bytes and retry.
	ErrShort = errors.New("wire: short frame")
	// ErrCorrupt reports a damaged frame or payload: bad CRC, unknown
	// message type, truncated fields, or trailing garbage.
	ErrCorrupt = errors.New("wire: corrupt frame")
)

// Msg is one typed protocol message.
type Msg interface {
	// Type returns the message's type byte.
	Type() byte
	appendPayload(dst []byte) []byte
}

// Hello assigns an agent its identity: shard index, fleet size, and the
// contiguous depth-20 trixel range it owns.  Sent by the coordinator as the
// first message on a connection; the agent replies with Ready.
type Hello struct {
	ShardID uint32
	Shards  uint32
	RangeLo int64
	RangeHi int64
	// Deferred tells the agent the coordinator will drive an explicit
	// BeginLoad/Seal window around the load tasks (deferred index build).
	Deferred bool
}

// Ready is the agent's readiness report: its shard id, whether its DB can
// serve indexed queries (false while loading, replaying a WAL, or
// mid-Seal), and its current row count.
type Ready struct {
	ShardID uint32
	Ready   bool
	Rows    int64
}

// LoadTask carries one shard's share of a catalog file to its agent, or —
// when Seal is set — asks the agent to close its load window and rebuild
// deferred indexes.  Text is that share as catalog text, one block of
// newline-terminated lines the coordinator has already routed: the agent
// parses and loads every one of them.  A decoded task's Text is a window of
// the payload it was decoded from, not a copy: those bytes must not change
// while the task or anything cut from its text is in use.
type LoadTask struct {
	TaskID       uint64
	Seal         bool
	Name         string
	RABase       float64
	DecBase      float64
	NominalBytes int64
	Text         string
}

// LoadResult acknowledges one LoadTask.
type LoadResult struct {
	TaskID      uint64
	ShardID     uint32
	RowsLoaded  int64
	RowsSkipped int64
	Err         string
}

// Query is one science query scattered to a shard.  Kind selects which
// parameter fields are meaningful.
type Query struct {
	QueryID uint64
	Kind    byte
	RA      float64 // cone
	Dec     float64 // cone
	Radius  float64 // cone
	ID      int64   // lookup: object id; frame: frame id
	Bin     float64 // maghist bin width
}

// QueryResult is a shard's answer to a Query.
type QueryResult struct {
	QueryID uint64
	Err     string
	Stats   queries.Stats
	Objects []queries.Object
	Bins    []queries.MagnitudeBin
}

// Stats is both the coordinator's stats probe (fields zero) and the agent's
// reply.  Ready mirrors the Ready message so one probe answers both "are
// you alive" and "can you serve".
type Stats struct {
	ShardID       uint32
	Ready         bool
	Rows          int64
	RowsLoaded    int64
	QueriesServed int64
}

// Type implements Msg.
func (Hello) Type() byte       { return TypeHello }
func (Ready) Type() byte       { return TypeReady }
func (LoadTask) Type() byte    { return TypeLoadTask }
func (LoadResult) Type() byte  { return TypeLoadResult }
func (Query) Type() byte       { return TypeQuery }
func (QueryResult) Type() byte { return TypeQueryResult }
func (Stats) Type() byte       { return TypeStats }

// ---- encoding helpers -------------------------------------------------

func appendU8(dst []byte, v byte) []byte { return append(dst, v) }
func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}
func appendU32(dst []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(dst, v) }
func appendU64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }
func appendI64(dst []byte, v int64) []byte  { return appendU64(dst, uint64(v)) }
func appendF64(dst []byte, v float64) []byte {
	return appendU64(dst, math.Float64bits(v))
}
func appendString(dst []byte, s string) []byte {
	dst = appendU32(dst, uint32(len(s)))
	return append(dst, s...)
}

// ---- per-message payloads ---------------------------------------------

func (m Hello) appendPayload(dst []byte) []byte {
	dst = appendU8(dst, TypeHello)
	dst = appendU32(dst, m.ShardID)
	dst = appendU32(dst, m.Shards)
	dst = appendI64(dst, m.RangeLo)
	dst = appendI64(dst, m.RangeHi)
	return appendBool(dst, m.Deferred)
}

func (m Ready) appendPayload(dst []byte) []byte {
	dst = appendU8(dst, TypeReady)
	dst = appendU32(dst, m.ShardID)
	dst = appendBool(dst, m.Ready)
	return appendI64(dst, m.Rows)
}

// appendHead appends every field of the payload before Text.
func (m LoadTask) appendHead(dst []byte) []byte {
	dst = appendU8(dst, TypeLoadTask)
	dst = appendU64(dst, m.TaskID)
	dst = appendBool(dst, m.Seal)
	dst = appendString(dst, m.Name)
	dst = appendF64(dst, m.RABase)
	dst = appendF64(dst, m.DecBase)
	return appendI64(dst, m.NominalBytes)
}

func (m LoadTask) appendPayload(dst []byte) []byte {
	return appendString(m.appendHead(dst), m.Text)
}

// AppendLoadTask is Append for a task whose text is written in place: m.Text
// is ignored and the text is the textBytes bytes fill appends to the slice it
// is given, which has room for them.  A block assembled from many records is
// so never built anywhere but in its frame; one too large for a frame is an
// error before any of it is built.
func AppendLoadTask(dst []byte, m LoadTask, textBytes int, fill func(dst []byte) []byte) ([]byte, error) {
	out, mark := frame.Begin(dst)
	out = appendU32(m.appendHead(out), uint32(textBytes))
	end := len(out) + textBytes
	if end-mark-FrameHeader > MaxMessageBytes {
		return dst, fmt.Errorf("wire: load task %s: %d bytes of text exceed the %d-byte frame limit", m.Name, textBytes, MaxMessageBytes)
	}
	if out = fill(slices.Grow(out, textBytes)); len(out) != end {
		panic(fmt.Sprintf("wire: load task %s: fill wrote %d bytes of text, not %d", m.Name, len(out)-end+textBytes, textBytes))
	}
	return frame.Finish(out, mark), nil
}

func (m LoadResult) appendPayload(dst []byte) []byte {
	dst = appendU8(dst, TypeLoadResult)
	dst = appendU64(dst, m.TaskID)
	dst = appendU32(dst, m.ShardID)
	dst = appendI64(dst, m.RowsLoaded)
	dst = appendI64(dst, m.RowsSkipped)
	return appendString(dst, m.Err)
}

func (m Query) appendPayload(dst []byte) []byte {
	dst = appendU8(dst, TypeQuery)
	dst = appendU64(dst, m.QueryID)
	dst = appendU8(dst, m.Kind)
	dst = appendF64(dst, m.RA)
	dst = appendF64(dst, m.Dec)
	dst = appendF64(dst, m.Radius)
	dst = appendI64(dst, m.ID)
	return appendF64(dst, m.Bin)
}

const (
	objectWireBytes = 48 // 2 ids + 2 coords + htmid + mag, 8 bytes each
	binWireBytes    = 24 // low, high, count
)

func (m QueryResult) appendPayload(dst []byte) []byte {
	dst = appendU8(dst, TypeQueryResult)
	dst = appendU64(dst, m.QueryID)
	dst = appendString(dst, m.Err)
	dst = appendI64(dst, int64(m.Stats.RowsExamined))
	dst = appendI64(dst, int64(m.Stats.RowsReturned))
	dst = appendBool(dst, m.Stats.UsedIndex)
	dst = appendI64(dst, int64(m.Stats.TrixelsScanned))
	dst = appendU32(dst, uint32(len(m.Objects)))
	for _, o := range m.Objects {
		dst = appendI64(dst, o.ObjectID)
		dst = appendI64(dst, o.FrameID)
		dst = appendF64(dst, o.RA)
		dst = appendF64(dst, o.Dec)
		dst = appendI64(dst, o.HTMID)
		dst = appendF64(dst, o.Mag)
	}
	dst = appendU32(dst, uint32(len(m.Bins)))
	for _, b := range m.Bins {
		dst = appendF64(dst, b.Low)
		dst = appendF64(dst, b.High)
		dst = appendI64(dst, b.Count)
	}
	return dst
}

func (m Stats) appendPayload(dst []byte) []byte {
	dst = appendU8(dst, TypeStats)
	dst = appendU32(dst, m.ShardID)
	dst = appendBool(dst, m.Ready)
	dst = appendI64(dst, m.Rows)
	dst = appendI64(dst, m.RowsLoaded)
	return appendI64(dst, m.QueriesServed)
}

// ---- framing ----------------------------------------------------------

// Append appends the framed encoding of m to dst and returns the extended
// slice.
func Append(dst []byte, m Msg) []byte {
	dst, mark := frame.Begin(dst)
	return frame.Finish(m.appendPayload(dst), mark)
}

// TypeOf returns the message type byte of a frame Append built, 0 if frame
// is too short to hold one.
func TypeOf(frame []byte) byte {
	if len(frame) <= FrameHeader {
		return 0
	}
	return frame[FrameHeader]
}

// Decode decodes one framed message from the head of buf.  It returns the
// message and the number of bytes consumed.  ErrShort means buf ends before
// the frame does (read more and retry); ErrCorrupt means the frame or its
// payload is damaged.  A LoadTask's Text aliases buf.
func Decode(buf []byte) (Msg, int, error) {
	payload, _, st := frame.Next(buf)
	switch st {
	case frame.Short:
		return nil, 0, ErrShort
	case frame.Corrupt:
		return nil, 0, fmt.Errorf("%w: bad payload length or CRC mismatch", ErrCorrupt)
	}
	m, err := decodePayload(payload)
	if err != nil {
		return nil, 0, err
	}
	return m, FrameHeader + len(payload), nil
}

// str reads a u32-length-prefixed string.
func str(c *frame.Cursor) string { return string(c.Bytes(int(c.U32()))) }

// decodePayload decodes one CRC-verified payload (type byte + fields).
// Trailing bytes after the last field are corruption: the encoding is
// canonical, so a valid payload is consumed exactly.
func decodePayload(payload []byte) (Msg, error) {
	r := frame.NewCursor(payload, ErrCorrupt)
	typ := r.U8()
	var m Msg
	switch typ {
	case TypeHello:
		m = Hello{
			ShardID:  r.U32(),
			Shards:   r.U32(),
			RangeLo:  r.I64(),
			RangeHi:  r.I64(),
			Deferred: r.Bool(),
		}
	case TypeReady:
		m = Ready{ShardID: r.U32(), Ready: r.Bool(), Rows: r.I64()}
	case TypeLoadTask:
		t := LoadTask{
			TaskID:       r.U64(),
			Seal:         r.Bool(),
			Name:         str(r),
			RABase:       r.F64(),
			DecBase:      r.F64(),
			NominalBytes: r.I64(),
		}
		text := r.Bytes(int(r.U32()))
		t.Text = unsafe.String(unsafe.SliceData(text), len(text))
		m = t
	case TypeLoadResult:
		m = LoadResult{
			TaskID:      r.U64(),
			ShardID:     r.U32(),
			RowsLoaded:  r.I64(),
			RowsSkipped: r.I64(),
			Err:         str(r),
		}
	case TypeQuery:
		q := Query{
			QueryID: r.U64(),
			Kind:    r.U8(),
			RA:      r.F64(),
			Dec:     r.F64(),
			Radius:  r.F64(),
			ID:      r.I64(),
			Bin:     r.F64(),
		}
		if q.Kind < KindCone || q.Kind > KindMagHist {
			r.Fail(fmt.Errorf("%w: unknown query kind %d", ErrCorrupt, q.Kind))
		}
		m = q
	case TypeQueryResult:
		res := QueryResult{QueryID: r.U64(), Err: str(r)}
		res.Stats.RowsExamined = int(r.I64())
		res.Stats.RowsReturned = int(r.I64())
		res.Stats.UsedIndex = r.Bool()
		res.Stats.TrixelsScanned = int(r.I64())
		if n := r.Count(objectWireBytes); n > 0 {
			res.Objects = make([]queries.Object, 0, n)
			for i := 0; i < n; i++ {
				res.Objects = append(res.Objects, queries.Object{
					ObjectID: r.I64(),
					FrameID:  r.I64(),
					RA:       r.F64(),
					Dec:      r.F64(),
					HTMID:    r.I64(),
					Mag:      r.F64(),
				})
			}
		}
		if n := r.Count(binWireBytes); n > 0 {
			res.Bins = make([]queries.MagnitudeBin, 0, n)
			for i := 0; i < n; i++ {
				res.Bins = append(res.Bins, queries.MagnitudeBin{
					Low:   r.F64(),
					High:  r.F64(),
					Count: r.I64(),
				})
			}
		}
		m = res
	case TypeStats:
		m = Stats{
			ShardID:       r.U32(),
			Ready:         r.Bool(),
			Rows:          r.I64(),
			RowsLoaded:    r.I64(),
			QueriesServed: r.I64(),
		}
	default:
		r.Fail(fmt.Errorf("%w: unknown message type 0x%02x", ErrCorrupt, typ))
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return m, nil
}

// ReadMsg reads one framed message from r, returning the bytes consumed.
// An EOF cleanly between frames surfaces as io.EOF; mid-frame it becomes
// io.ErrUnexpectedEOF.
func ReadMsg(r io.Reader) (Msg, int, error) {
	payload, err := frame.Read(r)
	if errors.Is(err, frame.ErrCorrupt) {
		err = fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if err != nil {
		return nil, 0, err
	}
	m, err := decodePayload(payload)
	if err != nil {
		return nil, 0, err
	}
	return m, FrameHeader + len(payload), nil
}

// FromQuery converts a queries.Query into its wire form.
func FromQuery(id uint64, q queries.Query) (Query, error) {
	switch t := q.(type) {
	case queries.Cone:
		return Query{QueryID: id, Kind: KindCone, RA: t.RA, Dec: t.Dec, Radius: t.RadiusDeg}, nil
	case queries.ObjectLookup:
		return Query{QueryID: id, Kind: KindLookup, ID: t.ObjectID}, nil
	case queries.FrameObjects:
		return Query{QueryID: id, Kind: KindFrame, ID: t.FrameID}, nil
	case queries.MagHistogram:
		return Query{QueryID: id, Kind: KindMagHist, Bin: t.BinWidth}, nil
	default:
		return Query{}, fmt.Errorf("wire: unsupported query type %T", q)
	}
}

// ToQuery converts a wire Query back into the executable queries.Query.
func (m Query) ToQuery() (queries.Query, error) {
	switch m.Kind {
	case KindCone:
		return queries.Cone{RA: m.RA, Dec: m.Dec, RadiusDeg: m.Radius}, nil
	case KindLookup:
		return queries.ObjectLookup{ObjectID: m.ID}, nil
	case KindFrame:
		return queries.FrameObjects{FrameID: m.ID}, nil
	case KindMagHist:
		return queries.MagHistogram{BinWidth: m.Bin}, nil
	default:
		return nil, fmt.Errorf("wire: unknown query kind %d", m.Kind)
	}
}
