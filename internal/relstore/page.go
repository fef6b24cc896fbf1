package relstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"unsafe"
)

// pageSizeBytes is the nominal heap page size; it matches the 8 KB block size
// the production Oracle repository used.
const pageSizeBytes = 8192

// Packed row format.  A stored row is a byte record laid out by a rowLayout,
// so a page holds no pointers and the collector never scans it:
//
//	[NULL bitmap: 1 bit per column][one slot per column][string bytes]
//
// A column's slot is a little-endian delta of 0, 1, 2, 4 or 8 bytes, and the
// column's 8-byte value is the layout's base for the column plus that delta.
// The value of an integer, timestamp or boolean column is Value.I; of a float
// column its IEEE bits (NaN payloads and -0 survive) or, when the layout gives
// the column a scale of p decimal places, the integer the float is times 10^p;
// of a string column a u32 offset from the record start plus a u32 length,
// pointing into the string bytes that follow the slots.  A NULL column sets
// its bitmap bit and has value zero, so Int and Float read 0 for it.
//
// A table's own layout is wide — 8-byte slots, base 0, no scale — and is what
// pack writes and the open page holds.  When a page of a table without a
// string column closes, it is re-encoded once into a narrow layout of its
// own (heapStore.narrow): each column's base is the page's minimum and its
// width the fewest bytes that hold the page's range.  Value is the transport
// type rows arrive and leave in; it is never what a table holds.

// rowLayout is the packed-record shape of a table (wide) or of one closed
// page (narrow).
type rowLayout struct {
	kinds  []ValueKind // canonical kind of every column; a table's layouts share it
	cols   []colSlot
	bitmap int // bytes of NULL bitmap
	fixed  int // bitmap + slots: where string bytes start
}

// colSlot places one column in a record: width bytes of delta at off, read as
// base + delta; a nonzero scale marks a float column held as value × 10^scale.
type colSlot struct {
	off   uint32
	width uint8
	scale uint8
	base  int64
}

func newRowLayout(cols []Column) *rowLayout {
	l := &rowLayout{kinds: make([]ValueKind, len(cols)), cols: make([]colSlot, len(cols)), bitmap: (len(cols) + 7) / 8}
	for i, c := range cols {
		l.kinds[i] = canonicalKind(c.Type)
		l.cols[i] = colSlot{off: uint32(l.bitmap + 8*i), width: 8}
	}
	l.fixed = l.bitmap + 8*len(cols)
	return l
}

// pack appends the record of row to dst in the wide layout l.  Every value
// must be NULL or of its column's canonical kind — Coerce guarantees it on the
// insert paths and replay checks it before storing — so a mismatch here is a
// bug upstream.
func (l *rowLayout) pack(dst []byte, row Row) []byte {
	base := len(dst)
	dst = slices.Grow(dst, l.fixed)[:base+l.fixed]
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
		slot := dst[base+l.bitmap+8*i:]
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

// errBadRecord reports bytes that are not a packed record of the layout.
var errBadRecord = errors.New("relstore: malformed packed row")

// view checks rec against the layout — long enough for bitmap and slots,
// every string inside the record — and returns the view over it.  It is total
// on arbitrary bytes; every getter of a returned view is then in bounds.
// Records the heap packed itself skip the check (heapStore.view).
func (l *rowLayout) view(rec []byte) (RowView, error) {
	if len(rec) < l.fixed {
		return RowView{}, fmt.Errorf("%w: %d bytes, layout needs %d", errBadRecord, len(rec), l.fixed)
	}
	v := RowView{lay: l, rec: rec}
	for i, k := range l.kinds {
		if k != KindString || v.IsNull(i) {
			continue
		}
		off, n := v.strSpan(i)
		if off < uint64(l.fixed) || off+n > uint64(len(rec)) {
			return RowView{}, fmt.Errorf("%w: string column %d spans [%d,%d) of %d bytes", errBadRecord, i, off, off+n, len(rec))
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
type RowView struct {
	lay *rowLayout
	rec []byte
}

// Len returns the number of columns.
func (v RowView) Len() int { return len(v.lay.kinds) }

// IsNull reports whether the column is SQL NULL.
func (v RowView) IsNull(col int) bool { return v.rec[col>>3]&(1<<(col&7)) != 0 }

// value returns the column's 8-byte value in rec: base plus the delta.
func (c *colSlot) value(rec []byte) uint64 {
	d := rec[c.off:]
	switch c.width {
	case 8:
		return uint64(c.base) + binary.LittleEndian.Uint64(d)
	case 4:
		return uint64(c.base) + uint64(binary.LittleEndian.Uint32(d))
	case 2:
		return uint64(c.base) + uint64(binary.LittleEndian.Uint16(d))
	case 1:
		return uint64(c.base) + uint64(d[0])
	}
	return uint64(c.base)
}

// Int returns the payload of an integer, timestamp (Unix nanoseconds) or
// boolean (0/1) column; 0 when the column is NULL.
func (v RowView) Int(col int) int64 { return int64(v.lay.cols[col].value(v.rec)) }

// Float returns the payload of a float column; 0 when the column is NULL.
func (v RowView) Float(col int) float64 {
	c := &v.lay.cols[col]
	s := c.value(v.rec)
	if c.scale != 0 {
		return float64(int64(s)) / pow10[c.scale]
	}
	return math.Float64frombits(s)
}

func (v RowView) strSpan(col int) (off, n uint64) {
	s := v.lay.cols[col].value(v.rec)
	return s & math.MaxUint32, s >> 32
}

// Value returns the column as a Value the caller may keep: a string is copied
// out of the page.
func (v RowView) Value(col int) Value {
	val := v.val(col)
	if val.Kind == KindString {
		val.S = string(v.strBytes(col))
	}
	return val
}

func (v RowView) strBytes(col int) []byte {
	off, n := v.strSpan(col)
	return v.rec[off : off+n]
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
		b := v.strBytes(col)
		return Value{Kind: KindString, S: unsafe.String(unsafe.SliceData(b), len(b))}
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
				blob = string(v.rec[v.lay.fixed:])
			}
			off, n := v.strSpan(i)
			row[i].S = blob[off-uint64(v.lay.fixed):][:n]
		}
	}
	return row
}

// page is a heap page: packed records back to back in the layout lay.  In a
// table with a string column records vary in length and offs gives each
// one's start; in a table without one record k starts at k × lay.fixed and
// offs is nil.  bytes is the nominal fill (RowSize of the live rows) that
// decides page boundaries.  Once closed, a page's data, offs and layout never
// change: a rollback marks the heap, not the page.
type page struct {
	data  []byte
	offs  []uint32
	lay   *rowLayout
	bytes int
}

func (p *page) fits(rowBytes int) bool {
	return p.bytes+rowBytes <= pageSizeBytes || len(p.data) == 0
}

// rows returns the number of records on the page.
func (p *page) rows() int {
	if p.offs == nil {
		return len(p.data) / p.lay.fixed
	}
	return len(p.offs)
}

// has reports whether the page holds a record at slot.
func (p *page) has(slot int) bool {
	if p.offs == nil {
		return (slot+1)*p.lay.fixed <= len(p.data)
	}
	return slot < len(p.offs)
}

// record returns the bytes of the slot's record.
func (p *page) record(slot int) []byte {
	if p.offs == nil {
		f := p.lay.fixed
		return p.data[slot*f : slot*f+f]
	}
	end := len(p.data)
	if slot+1 < len(p.offs) {
		end = int(p.offs[slot+1])
	}
	return p.data[p.offs[slot]:end]
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
		slot = len(h.wdata) / h.lay.fixed
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
	h.closedBytes += int64(cap(p.data)) + int64(unsafe.Sizeof(rowLayout{})) +
		int64(cap(p.lay.cols))*int64(unsafe.Sizeof(colSlot{}))
}

// narrow re-encodes the wide fixed-length records in src into a layout of
// their own and returns the new bytes and layout.  An integer, timestamp or
// boolean column becomes the page minimum plus the fewest bytes of delta that
// hold the page's range.  A float column with declared places does the same
// with its values scaled to integers, provided every value on the page
// decodes back to its exact bits; any other float column keeps its raw 8-byte
// slot.  src is the open page's write buffer, which the next page reuses, so
// the scaling is written into it in place and computed once per value.
func (h *heapStore) narrow(src []byte) ([]byte, *rowLayout) {
	w := h.lay
	lay := &rowLayout{kinds: w.kinds, cols: make([]colSlot, len(w.cols)), bitmap: w.bitmap, fixed: w.bitmap}
	for c := range lay.cols {
		cs, at := &lay.cols[c], int(w.cols[c].off)
		cs.off = uint32(lay.fixed)
		if w.kinds[c] != KindFloat || (h.places[c] != 0 && scaleColumn(src, at, w.fixed, h.places[c])) {
			lo, hi := columnRange(src, at, w.fixed)
			cs.base, cs.width, cs.scale = lo, deltaWidth(uint64(hi)-uint64(lo)), h.places[c]
		} else {
			cs.width = 8
		}
		lay.fixed += int(cs.width)
	}
	n := len(src) / w.fixed
	dst := make([]byte, n*lay.fixed)
	for k := 0; k < n; k++ {
		rec, out := src[k*w.fixed:], dst[k*lay.fixed:]
		copy(out, rec[:w.bitmap])
		for c := range lay.cols {
			cs := &lay.cols[c]
			d, o := binary.LittleEndian.Uint64(rec[w.cols[c].off:])-uint64(cs.base), out[cs.off:]
			switch cs.width {
			case 8:
				binary.LittleEndian.PutUint64(o, d)
			case 4:
				binary.LittleEndian.PutUint32(o, uint32(d))
			case 2:
				binary.LittleEndian.PutUint16(o, uint16(d))
			case 1:
				o[0] = byte(d)
			}
		}
	}
	return dst, lay
}

// scaleColumn replaces the float bits in the 8-byte slot at off of every
// stride-long record of src by the integer the value is at places decimal
// places, and reports whether each such integer decodes back to the exact
// bits it replaced.  -0, NaN, ±Inf, values off the precision and magnitudes
// of 2^52 and more do not; on false every slot holds its bits again.
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

// columnRange returns the least and greatest signed value in the 8-byte slot
// at off of every stride-long record of src.
func columnRange(src []byte, off, stride int) (lo, hi int64) {
	lo, hi = math.MaxInt64, math.MinInt64
	for ; off < len(src); off += stride {
		v := int64(binary.LittleEndian.Uint64(src[off:]))
		lo, hi = min(lo, v), max(hi, v)
	}
	return lo, hi
}

// deltaWidth is the fewest bytes of 0, 1, 2, 4 or 8 that hold span.
func deltaWidth(span uint64) uint8 {
	switch {
	case span == 0:
		return 0
	case span <= math.MaxUint8:
		return 1
	case span <= math.MaxUint16:
		return 2
	case span <= math.MaxUint32:
		return 4
	}
	return 8
}

// view returns the row stored at loc; ok is false for a deleted or
// out-of-range location.
func (h *heapStore) view(loc rowLoc) (RowView, bool) {
	if int(loc.page) >= len(h.pages) {
		return RowView{}, false
	}
	p := &h.pages[loc.page]
	if !p.has(int(loc.slot)) || h.deleted(loc) {
		return RowView{}, false
	}
	rec := p.record(int(loc.slot))
	if debugChecks {
		if _, err := p.lay.view(rec); err != nil {
			panic(fmt.Sprintf("relstore: heap holds a malformed record at %+v: %v", loc, err))
		}
	}
	return RowView{lay: p.lay, rec: rec}, true
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
		for si, n := 0, p.rows(); si < n; si++ {
			loc := rowLoc{page: uint32(pi), slot: uint32(si)}
			if h.deleted(loc) {
				continue
			}
			if !visit(loc, RowView{lay: p.lay, rec: p.record(si)}) {
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
