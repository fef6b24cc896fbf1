package relstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
	"unsafe"
)

// pageSizeBytes is the nominal heap page size; it matches the 8 KB block size
// the production Oracle repository used.
const pageSizeBytes = 8192

// Packed row format.  A page holds no pointers, so the collector never scans
// it.  A table's own layout is wide: pack writes its records, the open page
// holds them, and so does every page of a table with a string column:
//
//	[NULL bitmap: 1 bit per column][one 8-byte field per column][string bytes]
//
// A field holds Value.I of an integer, timestamp or boolean column, the IEEE
// bits of a float (NaN payloads and -0 survive), or a string's u32 offset from
// the record start and u32 length; a NULL sets its bitmap bit and holds 0.
//
// A closed page of a table without a string column is re-encoded once into a
// narrow layout of its own (heapStore.narrow): each column is a stream of w
// bits a row, row k's at bit k × w, read as the column's base plus those bits.
// base is the least of the page's non-NULL values and w = bits.Len64 of their
// span, 57–63 rounded up to 64; a float with declared places is held scaled by
// 10^places when every value decodes back to its exact bits, as raw bits
// otherwise.  An integer or scaled stream whose values part in two is split
// at the midpoint of their span: a row holds its offset from its cluster's
// least value in ow bits and, above them, a bit set for the upper cluster;
// an 8-byte word in front of the stream's bits holds jump − 2^ow, where jump
// is the upper cluster's least value minus base, so a row reads base plus its
// bits plus that bit times the word.  It is split only when 1 + ow is
// narrower than w (and at most 56), and ow is then the least that holds both
// clusters' offsets: two loaders interleaving 40-row batches of two files put
// two id ranges on every page, and the split keeps each range's width.  Only
// a column with a NULL on the page follows its values with a NULL bit a row
// (its value bits 0).  Streams start on a byte and 7 bytes of padding end the
// page, so every value of every layout is one read — an unaligned 8-byte
// load, a shift, a mask, plus base (colSlot.value), and in a split stream the
// word in front — a wide field being that read at a byte offset with w = 64
// and base 0.  Value is the transport type rows arrive and leave in; it is
// never what a table holds.

// rowLayout is the packed shape of a table's records (wide) or of one closed
// page (narrow).
type rowLayout struct {
	kinds []ValueKind // canonical kind of every column; a table's layouts share it
	cols  []colSlot
	// fixed is where a wide record's string bytes start, after its bitmap
	// and fields; rows is a narrow page's row count.  A narrow layout has
	// fixed 0, a wide one rows 0.
	fixed, rows uint32
}

// colSlot places one column: the field at byte off of a wide record, or the
// stream at byte off of a narrow page, width bits a row, read as base plus the
// bits; a nonzero scale marks a float held as value × 10^scale, and nulls a
// narrow stream followed by a NULL bit a row.  ow is the offset width: width
// itself, or width - 1 in a stream split in two clusters, whose top bit
// marks the upper one (colSlot.value).
type colSlot struct {
	off   uint32
	width uint8
	ow    uint8
	scale uint8
	nulls bool
	base  int64
}

// split reports whether the stream is coded against two bases.
func (c *colSlot) split() bool { return c.ow != c.width }

func newRowLayout(cols []Column) *rowLayout {
	l := &rowLayout{kinds: make([]ValueKind, len(cols)), cols: make([]colSlot, len(cols))}
	bitmap := uint32(len(cols)+7) / 8
	for i, c := range cols {
		l.kinds[i] = canonicalKind(c.Type)
		l.cols[i] = colSlot{off: bitmap + 8*uint32(i), width: 64, ow: 64}
	}
	l.fixed = bitmap + 8*uint32(len(cols))
	return l
}

// wide reports whether l lays out records rather than a narrow page.
func (l *rowLayout) wide() bool { return l.fixed != 0 }

// pack appends the record of row to dst in the wide layout l.  Every value
// must be NULL or of its column's canonical kind — Coerce guarantees it on the
// insert paths and replay checks it before storing — so a mismatch here is a
// bug upstream.
func (l *rowLayout) pack(dst []byte, row Row) []byte {
	base := len(dst)
	dst = slices.Grow(dst, int(l.fixed))[:base+int(l.fixed)]
	clear(dst[base:])
	for i := range row {
		v := &row[i]
		if v.Kind == KindNull {
			dst[base+i>>3] |= 1 << (i & 7)
			continue
		}
		if v.Kind != l.kinds[i] {
			panic(fmt.Sprintf("relstore: cannot store %s value in %s column %d", v.Kind, l.kinds[i], i))
		}
		slot := dst[base+int(l.cols[i].off):]
		switch v.Kind {
		case KindFloat:
			binary.LittleEndian.PutUint64(slot, math.Float64bits(v.F))
		case KindString:
			binary.LittleEndian.PutUint32(slot, uint32(len(dst)-base))
			binary.LittleEndian.PutUint32(slot[4:], uint32(len(v.S)))
			dst = append(dst, v.S...)
		default:
			binary.LittleEndian.PutUint64(slot, uint64(v.I))
		}
	}
	return dst
}

// errBadRecord reports bytes that are not a packed record or page of the
// layout.
var errBadRecord = errors.New("relstore: malformed packed row")

// view checks data against the layout and returns the view of row in it.  A
// wide layout takes one record as data and row 0: long enough for bitmap and
// fields, every string inside the record.  A narrow layout takes a page's
// data and a row below its count: long enough for every column's last read,
// with a split stream's jump word inside it.  view is total on arbitrary
// bytes; every getter of a returned view is then in bounds.  Pages the heap encoded itself skip the check (heapStore.view).
func (l *rowLayout) view(data string, row uint32) (RowView, error) {
	v := RowView{lay: l, rec: data, row: row}
	if !l.wide() {
		need := uint64(8)
		for _, c := range l.cols {
			if c.split() && c.off < 8 {
				return RowView{}, fmt.Errorf("%w: split stream at byte %d has no jump word in front", errBadRecord, c.off)
			}
			end := uint64(c.off)*8 + uint64(l.rows)*uint64(c.width)
			if c.nulls {
				end += uint64(l.rows)
			}
			need = max(need, (end+7)/8+7)
		}
		if row >= l.rows || uint64(len(data)) < need {
			return RowView{}, fmt.Errorf("%w: row %d of %d, %d bytes, page needs %d", errBadRecord, row, l.rows, len(data), need)
		}
		return v, nil
	}
	if row != 0 || len(data) < int(l.fixed) {
		return RowView{}, fmt.Errorf("%w: row %d, %d bytes, layout needs %d", errBadRecord, row, len(data), l.fixed)
	}
	for i, k := range l.kinds {
		if k != KindString || v.IsNull(i) {
			continue
		}
		off, n := v.strSpan(i)
		if off < uint64(l.fixed) || off+n > uint64(len(data)) {
			return RowView{}, fmt.Errorf("%w: string column %d spans [%d,%d) of %d bytes", errBadRecord, i, off, off+n, len(data))
		}
	}
	return v, nil
}

// RowView is a read-only view of one stored row, decoding column values
// straight from the page bytes.  The read paths that do not copy rows
// (ScanRef, RangeIndexedRef, LookupByPKRef) hand one to their visitor.
//
// Lifetime: a view is valid only while the table lock it was taken under is
// held — inside the visitor call.  It must not be retained; copy out what
// outlives the call with Value or Row.
//
// A view is 32 bytes, which the compiler keeps in registers; one more word
// would put every view passed to a visitor through memory.
type RowView struct {
	lay *rowLayout
	rec string // a wide record, or a narrow page's data: the page bytes, aliased
	row uint32 // the row on a narrow page; 0 in a wide record
}

// alias returns b as a string without a copy: a view's page bytes do not
// change while the table lock it was taken under is held.
func alias(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// Len returns the number of columns.
func (v RowView) Len() int { return len(v.lay.kinds) }

// bitsAt returns the w bits at bit b of d, w ≤ 56 or 64 with b on a byte:
// one unaligned little-endian 8-byte load, a shift and a mask.
func bitsAt(d string, b uint64, w uint8) uint64 {
	x := binary.LittleEndian.Uint64(unsafe.Slice(unsafe.StringData(d), len(d))[b>>3:])
	return x >> (b & 7) & (1<<w - 1)
}

// value returns the column's 8-byte value for row of d: base plus its bits,
// and in a split stream, whose upper cluster sets bit ow, plus that bit times
// the word in front of the stream, jump − 2^ow (the bit itself adds 2^ow, so
// no mask is needed and value stays inlinable in every getter).  A NULL
// reads base: a wide field holds 0 for it, a narrow stream 0 bits.
func (c *colSlot) value(d string, row uint32) uint64 {
	x := bitsAt(d, uint64(c.off)*8+uint64(row)*uint64(c.width), c.width)
	if c.ow != c.width {
		x += x >> c.ow * binary.LittleEndian.Uint64(unsafe.Slice(unsafe.StringData(d), len(d))[c.off-8:])
	}
	return uint64(c.base) + x
}

// null reports whether the view's row is NULL in c, a narrow column with
// NULL bits: its bit after the stream's values.
func (c *colSlot) null(v RowView) bool {
	b := uint64(c.off)*8 + uint64(v.lay.rows)*uint64(c.width) + uint64(v.row)
	return v.rec[b>>3]&(1<<(b&7)) != 0
}

// IsNull reports whether the column is SQL NULL: its bit in a wide record's
// bitmap, or in a narrow stream's NULL bits.
func (v RowView) IsNull(col int) bool {
	if v.lay.wide() {
		return v.rec[col>>3]&(1<<(col&7)) != 0
	}
	c := &v.lay.cols[col]
	return c.nulls && c.null(v)
}

// Int returns the payload of an integer, timestamp (Unix nanoseconds) or
// boolean (0/1) column; 0 when the column is NULL.
func (v RowView) Int(col int) int64 {
	c := &v.lay.cols[col]
	if c.nulls && c.null(v) {
		return 0
	}
	return int64(c.value(v.rec, v.row))
}

// Float returns the payload of a float column; 0 when the column is NULL.
func (v RowView) Float(col int) float64 {
	c := &v.lay.cols[col]
	if c.nulls && c.null(v) {
		return 0
	}
	s := c.value(v.rec, v.row)
	if c.scale != 0 {
		return float64(int64(s)) / pow10[c.scale]
	}
	return math.Float64frombits(s)
}

func (v RowView) strSpan(col int) (off, n uint64) {
	s := bitsAt(v.rec, uint64(v.lay.cols[col].off)*8, 64)
	return s & math.MaxUint32, s >> 32
}

// Value returns the column as a Value the caller may keep: a string is copied
// out of the page.
func (v RowView) Value(col int) Value {
	val := v.val(col)
	if val.Kind == KindString {
		val.S = strings.Clone(val.S)
	}
	return val
}

// val is Value without the string copy: a string value aliases the page
// bytes, so it obeys the view's lifetime rule and never leaves the package.
// The engine's own scans (key encoding, checkpoint, verification) encode it
// into a buffer of their own before the lock is released.
func (v RowView) val(col int) Value {
	if v.IsNull(col) {
		return Null
	}
	switch k := v.lay.kinds[col]; k {
	case KindFloat:
		return Value{Kind: KindFloat, F: v.Float(col)}
	case KindString:
		off, n := v.strSpan(col)
		return Value{Kind: KindString, S: v.rec[off : off+n]}
	default:
		return Value{Kind: k, I: v.Int(col)}
	}
}

// Row materialises the row.  The strings of the row share one allocation.
func (v RowView) Row() Row {
	row := make(Row, len(v.lay.kinds))
	var blob string
	for i := range row {
		row[i] = v.val(i)
		if row[i].Kind == KindString {
			if blob == "" {
				blob = strings.Clone(v.rec[v.lay.fixed:])
			}
			off, n := v.strSpan(i)
			row[i].S = blob[off-uint64(v.lay.fixed):][:n]
		}
	}
	return row
}

// page is a heap page: records back to back in the table's wide layout, or a
// closed page's column streams in a narrow layout of its own.  Records vary
// in length in a table with a string column, and offs gives each one's start;
// otherwise offs is nil.  bytes is the nominal fill (RowSize of the live rows)
// that decides page boundaries.  Once closed, a page's data, offs and layout
// never change: a rollback marks the heap, not the page.
type page struct {
	data  []byte
	offs  []uint32
	lay   *rowLayout
	bytes int
}

// constPage is the data of a closed page whose every column is constant: the
// 8 bytes a read loads, shared, so such a page holds no data bytes.
var constPage [8]byte

func (p *page) fits(rowBytes int) bool {
	return p.bytes+rowBytes <= pageSizeBytes || len(p.data) == 0
}

// dataBytes is the capacity the page's data holds.
func (p *page) dataBytes() int64 {
	if unsafe.SliceData(p.data) == &constPage[0] {
		return 0
	}
	return int64(cap(p.data))
}

// rows returns the number of records on the page.
func (p *page) rows() int {
	switch {
	case p.offs != nil:
		return len(p.offs)
	case !p.lay.wide():
		return int(p.lay.rows)
	}
	return len(p.data) / int(p.lay.fixed)
}

// record returns the slot's record on a page in a wide layout.
func (p *page) record(slot int) string {
	if p.offs == nil {
		f := int(p.lay.fixed)
		return alias(p.data[slot*f : slot*f+f])
	}
	end := len(p.data)
	if slot+1 < len(p.offs) {
		end = int(p.offs[slot+1])
	}
	return alias(p.data[p.offs[slot]:end])
}

// heapStore is the append-only page heap of one table.
type heapStore struct {
	lay *rowLayout // the table's wide layout: pack's, and the open page's
	// varlen says the table has a string column: its closed pages stay wide
	// and keep offs.  places holds, for a float column with a declared
	// Column.Precision, the decimal places narrow may scale it by; else 0.
	varlen bool
	places []uint8
	pages  []page
	// wdata and woffs are the write buffers the open (last) page fills.  When
	// a page closes it takes an exact-size copy or its narrow encoding and
	// the buffers start the next page, so a closed page holds no growth slack.
	wdata []byte
	woffs []uint32
	// jumps holds, while narrow encodes a page, each split column's upper
	// cluster base less its lower one.
	jumps []uint64
	// dead holds the rows a rollback removed; nil until the first, which a
	// load never makes.
	dead map[rowLoc]struct{}
	// closedBytes is the capacity held by closed pages' data, slots and
	// layouts.
	closedBytes int64

	rowCount int64
	bytes    int64
}

// rowLoc addresses a stored row: page index and slot within the page.
type rowLoc struct {
	page uint32
	slot uint32
}

func newHeapStore(cols []Column) *heapStore {
	h := &heapStore{lay: newRowLayout(cols), places: make([]uint8, len(cols))}
	for i, c := range cols {
		switch {
		case c.Type == TypeString:
			h.varlen = true
		case c.Type == TypeFloat && c.Precision > 0 && c.Precision < len(pow10):
			h.places[i] = uint8(c.Precision)
		}
	}
	return h
}

// append places a row in the heap and returns its location, whether a new
// page was allocated, and the row's nominal byte size (so callers accounting
// RowBytes do not recompute it).  Page boundaries follow the nominal size, as
// they did when pages held values, so the physical-work reports are
// independent of the packed encoding.
func (h *heapStore) append(r Row) (rowLoc, bool, int) {
	rb := RowSize(r)
	newPage := false
	if len(h.pages) == 0 || !h.pages[len(h.pages)-1].fits(rb) {
		if n := len(h.pages); n > 0 {
			h.closePage(&h.pages[n-1])
		}
		h.pages = append(h.pages, page{lay: h.lay})
		h.wdata, h.woffs = h.wdata[:0], h.woffs[:0]
		newPage = true
	}
	p := &h.pages[len(h.pages)-1]
	var slot int
	if h.varlen {
		if uint64(len(h.wdata)) > math.MaxUint32 {
			panic("relstore: heap page exceeds 4 GiB")
		}
		slot = len(h.woffs)
		h.woffs = append(h.woffs, uint32(len(h.wdata)))
		p.offs = h.woffs
	} else {
		slot = len(h.wdata) / int(h.lay.fixed)
	}
	h.wdata = h.lay.pack(h.wdata, r)
	p.data = h.wdata
	p.bytes += rb
	h.rowCount++
	h.bytes += int64(rb)
	return rowLoc{page: uint32(len(h.pages) - 1), slot: uint32(slot)}, newPage, rb
}

// closePage gives the full open page its closed form: an exact-size copy in a
// table with a string column, its narrow encoding in one without.
func (h *heapStore) closePage(p *page) {
	if h.varlen {
		p.data, p.offs = slices.Clone(p.data), slices.Clone(p.offs)
		h.closedBytes += int64(cap(p.data)) + 4*int64(cap(p.offs))
		return
	}
	p.data, p.lay = h.narrow(p.data)
	h.closedBytes += p.dataBytes() + int64(unsafe.Sizeof(rowLayout{})) +
		int64(cap(p.lay.cols))*int64(unsafe.Sizeof(colSlot{}))
}

// narrow re-encodes the wide fixed-length records in src into column streams
// (see Packed row format) and returns the new bytes and layout.  src is the
// open page's write buffer, which the next page reuses, so the float scaling
// is written into it in place and computed once per value.
func (h *heapStore) narrow(src []byte) ([]byte, *rowLayout) {
	w := h.lay
	stride := int(w.fixed)
	n := len(src) / stride
	lay := &rowLayout{kinds: w.kinds, cols: make([]colSlot, len(w.cols)), rows: uint32(n)}
	h.jumps = slices.Grow(h.jumps[:0], len(w.cols))[:len(w.cols)]
	size := 0
	for c := range lay.cols {
		cs, at := &lay.cols[c], int(w.cols[c].off)
		scaled := h.places[c] != 0 && scaleColumn(src, at, stride, h.places[c])
		lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
		for k := 0; k < n; k++ {
			if src[k*stride+c>>3]&(1<<(c&7)) != 0 {
				cs.nulls = true
				continue
			}
			v := int64(binary.LittleEndian.Uint64(src[k*stride+at:]))
			lo, hi = min(lo, v), max(hi, v)
		}
		raw := w.kinds[c] == KindFloat && !scaled
		switch {
		case raw:
			cs.width = 64
		case lo <= hi:
			cs.base, cs.width = lo, streamWidth(uint64(hi)-uint64(lo))
		}
		cs.ow, h.jumps[c] = cs.width, 0
		if !raw && cs.width > 1 {
			if upper, ow, ok := clusters(src, c, at, stride, lo, hi, cs.width); ok {
				cs.width, cs.ow, h.jumps[c] = ow+1, ow, uint64(upper)-uint64(lo)
				size += 8
			}
		}
		if scaled {
			cs.scale = h.places[c]
		}
		nbits := n * int(cs.width)
		if cs.nulls {
			nbits += n
		}
		if nbits > 0 {
			cs.off = uint32(size)
			size += (nbits + 7) / 8
		}
	}
	if size == 0 {
		return constPage[:], lay
	}
	dst := make([]byte, size+7)
	for c := range lay.cols {
		cs, at := &lay.cols[c], int(w.cols[c].off)
		vals, nulls := uint64(cs.off)*8, uint64(cs.off)*8+uint64(n)*uint64(cs.width)
		// An offset at or past jump is the upper cluster's: lift takes it
		// to its offset from the upper base plus the cluster bit.  In a
		// stream that is not split jump and lift are 0.
		jump, lift := h.jumps[c], uint64(0)
		if cs.split() {
			lift = 1<<cs.ow - jump
			binary.LittleEndian.PutUint64(dst[cs.off-8:], -lift)
		}
		for k := 0; k < n; k++ {
			switch {
			case src[k*stride+c>>3]&(1<<(c&7)) != 0:
				putBits(dst, nulls+uint64(k), 1)
			case cs.width != 0:
				x := binary.LittleEndian.Uint64(src[k*stride+at:]) - uint64(cs.base)
				if y := x + lift; x >= jump {
					x = y
				}
				putBits(dst, vals+uint64(k)*uint64(cs.width), x)
			}
		}
	}
	return dst, lay
}

// clusters splits the non-NULL values of column c in src, which span
// [lo, hi] in w bits a row, at the midpoint of that span.  It reports whether
// the split is narrower — 1 + ow < w and at most 56, ow the bits.Len64 of the
// wider cluster's span — and then returns the least value above the midpoint
// and ow.  A value at least far = 2^(w−2) (2^55 for w = 64) from both ends
// leaves its cluster no narrower, so a stream that does not part stops at its
// first such value; the scan starts at the page's middle row, where an
// ascending stream has one.
func clusters(src []byte, c, at, stride int, lo, hi int64, w uint8) (upper int64, ow uint8, ok bool) {
	far := uint64(1) << (min(w, 57) - 2)
	mid := lo + int64((uint64(hi)-uint64(lo))/2)
	lower, upper := lo, hi
	n := len(src) / stride
	for j := 0; j < n; j++ {
		k := j + n/2
		if k >= n {
			k -= n
		}
		if src[k*stride+c>>3]&(1<<(c&7)) != 0 {
			continue
		}
		v := int64(binary.LittleEndian.Uint64(src[k*stride+at:]))
		if uint64(v)-uint64(lo) >= far && uint64(hi)-uint64(v) >= far {
			return 0, 0, false
		}
		// Conditional moves, not a branch: on interleaved batches the side
		// changes every few dozen rows.
		below, above := v, v
		if v > mid {
			below = lo
		}
		if v <= mid {
			above = hi
		}
		lower, upper = max(lower, below), min(upper, above)
	}
	return upper, uint8(bits.Len64(max(uint64(lower)-uint64(lo), uint64(hi)-uint64(upper)))), true
}

// putBits ORs x into d at bit b, where d holds zeros; x has at most 56 bits,
// or b is on a byte.
func putBits(d []byte, b, x uint64) {
	binary.LittleEndian.PutUint64(d[b>>3:], binary.LittleEndian.Uint64(d[b>>3:])|x<<(b&7))
}

// streamWidth is the bits a row of a stream of values spanning span takes:
// bits.Len64, with 57–63 rounded up to 64 so one 8-byte load reads any value.
func streamWidth(span uint64) uint8 {
	if w := bits.Len64(span); w <= 56 {
		return uint8(w)
	}
	return 64
}

// scaleColumn replaces the float bits in the 8-byte field at off of every
// stride-long record of src by the integer the value is at places decimal
// places, and reports whether each such integer decodes back to the exact
// bits it replaced.  -0, NaN, ±Inf, values off the precision and magnitudes
// of 2^52 and more do not; on false every field holds its bits again.  A
// NULL's field holds 0, which scales to 0.
func scaleColumn(src []byte, off, stride int, places uint8) bool {
	p := pow10[places]
	for at := off; at < len(src); at += stride {
		bits := binary.LittleEndian.Uint64(src[at:])
		r := math.Round(math.Float64frombits(bits) * p)
		if !(math.Abs(r) < 1<<52) || math.Float64bits(float64(int64(r))/p) != bits {
			for back := off; back < at; back += stride {
				r := int64(binary.LittleEndian.Uint64(src[back:]))
				binary.LittleEndian.PutUint64(src[back:], math.Float64bits(float64(r)/p))
			}
			return false
		}
		binary.LittleEndian.PutUint64(src[at:], uint64(int64(r)))
	}
	return true
}

// view returns the row stored at loc; ok is false for a deleted or
// out-of-range location.
func (h *heapStore) view(loc rowLoc) (RowView, bool) {
	if int(loc.page) >= len(h.pages) {
		return RowView{}, false
	}
	p := &h.pages[loc.page]
	if int(loc.slot) >= p.rows() || h.deleted(loc) {
		return RowView{}, false
	}
	v := RowView{lay: p.lay, rec: alias(p.data), row: loc.slot}
	if p.lay.wide() {
		v.rec, v.row = p.record(int(loc.slot)), 0
	}
	if debugChecks {
		if _, err := v.lay.view(v.rec, v.row); err != nil {
			panic(fmt.Sprintf("relstore: heap holds a malformed row at %+v: %v", loc, err))
		}
	}
	return v, true
}

// deleted reports whether a rollback removed the row at loc.
func (h *heapStore) deleted(loc rowLoc) bool {
	if h.dead == nil {
		return false
	}
	_, gone := h.dead[loc]
	return gone
}

// markDeleted removes the row at loc (used only by transaction rollback).
func (h *heapStore) markDeleted(loc rowLoc) {
	v, ok := h.view(loc)
	if !ok {
		return
	}
	rb := rowSizeOfView(v)
	if h.dead == nil {
		h.dead = make(map[rowLoc]struct{})
	}
	h.dead[loc] = struct{}{}
	h.pages[loc.page].bytes -= rb
	h.rowCount--
	h.bytes -= int64(rb)
}

// rowSizeOfView is RowSize of the stored row.
func rowSizeOfView(v RowView) int {
	n := 4 // row header
	for i := range v.lay.kinds {
		val := v.val(i)
		n += valueSizeRef(&val)
	}
	return n
}

// scanLoc visits every live row in heap order along with its physical
// location, for callers that need to map locations back to row ids.
func (h *heapStore) scanLoc(visit func(loc rowLoc, v RowView) bool) {
	for pi := range h.pages {
		p := &h.pages[pi]
		v, wide := RowView{lay: p.lay, rec: alias(p.data)}, p.lay.wide()
		for si, n := 0, p.rows(); si < n; si++ {
			loc := rowLoc{page: uint32(pi), slot: uint32(si)}
			if h.deleted(loc) {
				continue
			}
			if wide {
				v.rec = p.record(si)
			} else {
				v.row = uint32(si)
			}
			if !visit(loc, v) {
				return
			}
		}
	}
}

// scan visits every live row in heap order.
func (h *heapStore) scan(visit func(v RowView) bool) {
	h.scanLoc(func(_ rowLoc, v RowView) bool { return visit(v) })
}

// pageCount returns the number of allocated pages.
func (h *heapStore) pageCount() int { return len(h.pages) }

// residentBytes is the memory the heap holds for rows: page data, slot
// directories and page-local layouts at their allocated capacity, and the page
// headers.  Rollback marks, which a load never makes, are not counted.
func (h *heapStore) residentBytes() int64 {
	return h.closedBytes + int64(cap(h.wdata)) + 4*int64(cap(h.woffs)) +
		int64(cap(h.pages))*int64(unsafe.Sizeof(page{}))
}
