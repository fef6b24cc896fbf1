package shard

import (
	"strconv"
	"strings"
	"sync"

	"skyloader/internal/catalog"
	"skyloader/internal/htm"
	"skyloader/internal/relstore"
)

// objField holds the OBJ-layout geometry needed to place a record on a
// shard: the ra/dec field positions and the schema precision those fields
// are rounded to before the transformer computes the htmid.  Rounding first
// is load-bearing: an object a hair's breadth past a shard boundary can be
// rounded across it, and the shard decision must match the htmid the
// transformer will store.
type objField struct {
	raIdx, decIdx   int
	raPrec, decPrec int
	idIdx           int // object_id position in OBJ records
	childIdx        int // object_id position in child records (FNG/OAP/SHP/FLG)
}

var objLayout = sync.OnceValue(func() objField {
	layout, _ := catalog.LayoutFor(catalog.TagOBJ)
	f := objField{raIdx: -1, decIdx: -1, idIdx: -1, childIdx: 1}
	for i, name := range layout.Fields {
		switch name {
		case "ra":
			f.raIdx = i
		case "dec":
			f.decIdx = i
		case "object_id":
			f.idIdx = i
		}
	}
	ts := catalog.NewSchema().Table(catalog.TObjects)
	f.raPrec = ts.Columns[ts.ColumnIndex("ra")].Precision
	f.decPrec = ts.Columns[ts.ColumnIndex("dec")].Precision
	return f
})

// objectTrixel resolves an OBJ record to its depth-DefaultDepth trixel id,
// replicating the transformer's pipeline exactly: trim, parse, round to the
// schema precision, bounds-check, then htm.Lookup.  ok is false when the
// position cannot be resolved (malformed or out-of-sphere) — such rows are
// routed to the file's home shard, where loading them reproduces the
// single-node error path (skipped row or check-constraint rejection) exactly
// once across the fleet.
func objectTrixel(rec catalog.Record) (int64, bool) {
	f := objLayout()
	ra, ok1 := parseRounded(rec.Fields[f.raIdx], f.raPrec)
	dec, ok2 := parseRounded(rec.Fields[f.decIdx], f.decPrec)
	if !ok1 || !ok2 {
		return 0, false
	}
	if !(ra >= 0 && ra <= 360 && dec >= -90 && dec <= 90) {
		return 0, false
	}
	id, err := htm.Lookup(ra, dec, htm.DefaultDepth)
	if err != nil {
		return 0, false
	}
	return id, true
}

func parseRounded(raw string, prec int) (float64, bool) {
	raw = strings.TrimSpace(raw)
	if raw == "" {
		return 0, false
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return 0, false
	}
	if prec > 0 {
		v = relstore.RoundTo(v, prec)
	}
	return v, true
}

// childTag reports whether records with this tag hang off an object row and
// must follow it to its shard.
func childTag(tag catalog.Tag) bool {
	switch tag {
	case catalog.TagFNG, catalog.TagOAP, catalog.TagSHP, catalog.TagFLG:
		return true
	}
	return false
}

// routeAll marks a record every shard receiving its file loads: frames,
// observations, calibration — duplicated so foreign keys resolve locally.
const routeAll = ^uint16(0)

// routeFile decides, once for the whole fleet, where each record of f loads:
// an OBJ row on the shard owning its trixel (an unresolvable position on the
// file's home shard, the owner of the footprint centre), a child row where
// its object went — in this file or, through the directory, an earlier one —
// or else on the home shard, where loading it reproduces the single-node
// outcome, and every other record on all of targets.  route[i] is that shard
// or routeAll; targets are the shards with a record of their own plus home.
// Object ids are recorded in dir as they are placed.
func routeFile(pm *PartitionMap, dir *directory, f *catalog.File) (route []uint16, targets []int) {
	l := objLayout()
	home := pm.Owner(fileCenterTrixel(f))
	route = make([]uint16, len(f.Records))
	receives := make([]bool, pm.Shards())
	receives[home] = true
	for i, rec := range f.Records {
		if rec.Tag != catalog.TagOBJ {
			continue
		}
		s := home
		if trixel, ok := objectTrixel(rec); ok {
			s = pm.Owner(trixel)
		}
		route[i] = uint16(s)
		receives[s] = true
		if id, ok := objectID(rec.Fields[l.idIdx]); ok {
			dir.add(id, s)
		}
	}
	for i, rec := range f.Records {
		switch {
		case rec.Tag == catalog.TagOBJ:
		case childTag(rec.Tag):
			s := home
			if len(rec.Fields) > l.childIdx {
				if id, ok := objectID(rec.Fields[l.childIdx]); ok {
					if owner, ok := dir.first(id); ok {
						s = owner
					}
				}
			}
			route[i] = uint16(s)
			receives[s] = true
		default:
			route[i] = routeAll
		}
	}
	for s, ok := range receives {
		if ok {
			targets = append(targets, s)
		}
	}
	return route, targets
}

// objectID parses an object_id field as the transformer does.
func objectID(raw string) (int64, bool) {
	id, err := strconv.ParseInt(strings.TrimSpace(raw), 10, 64)
	return id, err == nil
}
