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

// Packed row format.  A stored row is a byte record laid out from the table's
// column kinds alone, so a page holds no pointers and the collector never
// scans it:
//
//	[NULL bitmap: 1 bit per column][8-byte slot per column][string bytes]
//
// An integer, timestamp or boolean column's slot is Value.I, a float column's
// slot its IEEE bits (NaN payloads and -0 survive), both little-endian; a
// string column's slot is a u32 offset from the record start plus a u32
// length, pointing into the string bytes that follow the slots.  A NULL
// column sets its bitmap bit and leaves the slot zero.  Value is the
// transport type rows arrive and leave in; it is never what a table holds.

// rowLayout is the packed-record shape of one table.
type rowLayout struct {
	kinds  []ValueKind // canonical kind of every column
	bitmap int         // bytes of NULL bitmap
	fixed  int         // bitmap + slots: where string bytes start
}

func newRowLayout(cols []Column) *rowLayout {
	l := &rowLayout{kinds: make([]ValueKind, len(cols)), bitmap: (len(cols) + 7) / 8}
	for i, c := range cols {
		l.kinds[i] = canonicalKind(c.Type)
	}
	l.fixed = l.bitmap + 8*len(cols)
	return l
}

// pack appends the record of row to dst.  Every value must be NULL or of its
// column's canonical kind — Coerce guarantees it on the insert paths and
// replay checks it before storing — so a mismatch here is a bug upstream.
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

func (v RowView) slot(col int) uint64 {
	return binary.LittleEndian.Uint64(v.rec[v.lay.bitmap+8*col:])
}

// Int returns the payload of an integer, timestamp (Unix nanoseconds) or
// boolean (0/1) column; 0 when the column is NULL.
func (v RowView) Int(col int) int64 { return int64(v.slot(col)) }

// Float returns the payload of a float column; 0 when the column is NULL.
func (v RowView) Float(col int) float64 { return math.Float64frombits(v.slot(col)) }

func (v RowView) strSpan(col int) (off, n uint64) {
	s := v.slot(col)
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

// page is a heap page: packed records back to back, and the slot directory
// giving each record's start.  bytes is the nominal fill (RowSize of the live
// rows) that decides page boundaries.
type page struct {
	data  []byte
	offs  []uint32
	bytes int
}

// deadSlot flags a slot whose row a rollback removed; the offset below it
// stays, because it bounds the preceding record.
const deadSlot = 1 << 31

func (p *page) fits(rowBytes int) bool {
	return p.bytes+rowBytes <= pageSizeBytes || len(p.offs) == 0
}

// record returns the bytes of the slot's record.
func (p *page) record(slot int) []byte {
	end := len(p.data)
	if slot+1 < len(p.offs) {
		end = int(p.offs[slot+1] &^ deadSlot)
	}
	return p.data[p.offs[slot]&^deadSlot : end]
}

// heapStore is the append-only page heap of one table.
type heapStore struct {
	lay   *rowLayout
	pages []page
	// wdata and woffs are the write buffers the open (last) page fills.  When
	// a page closes it takes an exact-size copy and the buffers start the next
	// page, so a closed page holds no growth slack.
	wdata []byte
	woffs []uint32
	// closedBytes is the capacity held by closed pages' data and slots.
	closedBytes int64

	rowCount int64
	bytes    int64
}

// rowLoc addresses a stored row: page index and slot within the page.
type rowLoc struct {
	page uint32
	slot uint32
}

func newHeapStore(lay *rowLayout) *heapStore {
	return &heapStore{lay: lay}
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
			p := &h.pages[n-1]
			p.data, p.offs = slices.Clone(p.data), slices.Clone(p.offs)
			h.closedBytes += int64(cap(p.data)) + 4*int64(cap(p.offs))
		}
		h.pages = append(h.pages, page{})
		h.wdata, h.woffs = h.wdata[:0], h.woffs[:0]
		newPage = true
	}
	p := &h.pages[len(h.pages)-1]
	if len(h.wdata) >= deadSlot {
		panic("relstore: heap page exceeds 2 GiB")
	}
	h.woffs = append(h.woffs, uint32(len(h.wdata)))
	h.wdata = h.lay.pack(h.wdata, r)
	p.data, p.offs = h.wdata, h.woffs
	p.bytes += rb
	h.rowCount++
	h.bytes += int64(rb)
	return rowLoc{page: uint32(len(h.pages) - 1), slot: uint32(len(p.offs) - 1)}, newPage, rb
}

// view returns the row stored at loc; ok is false for a deleted or
// out-of-range location.
func (h *heapStore) view(loc rowLoc) (RowView, bool) {
	if int(loc.page) >= len(h.pages) {
		return RowView{}, false
	}
	p := &h.pages[loc.page]
	if int(loc.slot) >= len(p.offs) || p.offs[loc.slot]&deadSlot != 0 {
		return RowView{}, false
	}
	rec := p.record(int(loc.slot))
	if debugChecks {
		if _, err := h.lay.view(rec); err != nil {
			panic(fmt.Sprintf("relstore: heap holds a malformed record at %+v: %v", loc, err))
		}
	}
	return RowView{lay: h.lay, rec: rec}, true
}

// markDeleted removes the row at loc (used only by transaction rollback).
func (h *heapStore) markDeleted(loc rowLoc) {
	v, ok := h.view(loc)
	if !ok {
		return
	}
	rb := rowSizeOfView(v)
	p := &h.pages[loc.page]
	p.offs[loc.slot] |= deadSlot
	p.bytes -= rb
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
		for si, off := range p.offs {
			if off&deadSlot != 0 {
				continue
			}
			if !visit(rowLoc{page: uint32(pi), slot: uint32(si)}, RowView{lay: h.lay, rec: p.record(si)}) {
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

// residentBytes is the memory the heap holds for rows: page data and slot
// directories at their allocated capacity, and the page headers.
func (h *heapStore) residentBytes() int64 {
	return h.closedBytes + int64(cap(h.wdata)) + 4*int64(cap(h.woffs)) +
		int64(cap(h.pages))*int64(unsafe.Sizeof(page{}))
}
