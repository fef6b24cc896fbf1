package serve

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"skyloader/internal/catalog"
	"skyloader/internal/queries"
)

// Request is one query arriving at the serving layer at a point in time.
type Request struct {
	// Arrival is the offset from the start of the run at which the query
	// arrives (virtual time on the DES engine, wall-clock on realtime).
	Arrival time.Duration
	// Query is the query to execute.
	Query queries.Query
}

// TraceSpec controls synthetic workload generation.  The same spec and seed
// always produce the same trace, and a trace written with WriteTrace and read
// back with ReadTrace replays identically — runs are reproducible either way.
type TraceSpec struct {
	// Queries is the number of requests to generate.
	Queries int
	// Seed makes generation deterministic.
	Seed int64
	// ZipfS is the Zipf skew parameter (> 1; larger = hotter hot set) for
	// both object-lookup targets and cone-field popularity.  The default
	// 1.2 matches the "few popular objects, long tail" shape of public
	// archive logs.
	ZipfS float64
	// ConeFrac is the fraction of requests that are cone searches; the
	// remainder are primary-key object lookups with a sprinkling of
	// frame-detail queries.
	ConeFrac float64
	// Radii is the cone-radius mix in degrees; each cone draws one
	// uniformly.  Default {0.05, 0.2, 1.0} (point source, cluster field,
	// wide survey cut).
	Radii []float64
	// Objects is the size of the object-id universe lookups draw from.
	Objects int64
	// IDBase offsets drawn object ids, matching the generator's IDBase so
	// lookups land on loaded rows.
	IDBase int64
	// Frames is the frame-id universe for frame queries (0 disables them).
	Frames int64
	// Fields is the number of distinct cone-search field centres; cone
	// popularity is Zipf over the fields, which is what makes a result
	// cache earn its keep.  Default 24.
	Fields int
	// Boxes lists the sky footprints field centres are drawn from; field k
	// uses box k modulo len(Boxes).  They must match the loaded catalog or
	// every cone probes empty sky — build them from the generated files
	// with WithFootprint.  When empty, the RABase... box below is used.
	Boxes []SkyBox
	// RABase/DecBase/RASpread/DecSpread box the cone field centres when
	// Boxes is empty; the defaults span the catalog generator's whole
	// base-point range (RA 0..332, Dec -25..26), which guarantees overlap
	// with *some* sky only for wide-area traces — prefer WithFootprint.
	RABase, DecBase, RASpread, DecSpread float64
	// RatePerSec is the mean Poisson arrival rate.  0 means 200 qps.
	RatePerSec float64
}

// SkyBox is one rectangular sky footprint cone-search field centres are
// drawn from.
type SkyBox struct {
	RABase, DecBase     float64
	RASpread, DecSpread float64
}

// WithFootprint aims the trace at the sky actually covered by the generated
// files: one box per file, spanning the file's frame/object footprint
// (~2.3 deg of RA, ~0.85 deg of Dec from its base point).  Without this,
// cone searches against a loaded catalog mostly probe empty sky, because
// each generated file sits at a random base position.
func (s TraceSpec) WithFootprint(files []*catalog.File) TraceSpec {
	boxes := make([]SkyBox, 0, len(files))
	for _, f := range files {
		boxes = append(boxes, SkyBox{
			RABase: f.RABase, DecBase: f.DecBase,
			RASpread: 2.3, DecSpread: 0.85,
		})
	}
	if len(boxes) > 0 {
		s.Boxes = boxes
	}
	return s
}

// NightTraceSpec returns the part of a trace spec that must match a night
// generated by catalog.GenerateNight from the same size and rows per MB, so
// the tools that load a night and the ones that only query it aim at the same
// rows: the per-file object-id universe, file 1's IDBase, the frame universe
// and the files' sky footprint.  The caller sets Queries, Seed, the mix and
// the rate.
func NightTraceSpec(sizeMB float64, rowsPerMB int, files []*catalog.File) TraceSpec {
	// Objects per file ≈ rows/file × the generator's object share (~1/8).
	objects := max(int64(sizeMB*float64(rowsPerMB))/8/int64(len(files)), 64)
	return TraceSpec{
		Objects: objects,
		IDBase:  100_000_000, // GenerateNight file 1
		Frames:  objects / 12,
	}.WithFootprint(files) // aim cones at the sky the files actually cover
}

func (s TraceSpec) withDefaults() TraceSpec {
	if s.Queries <= 0 {
		s.Queries = 1000
	}
	if s.ZipfS <= 1 {
		s.ZipfS = 1.2
	}
	if s.ConeFrac < 0 {
		s.ConeFrac = 0
	}
	if s.ConeFrac > 1 {
		s.ConeFrac = 1
	}
	if len(s.Radii) == 0 {
		s.Radii = []float64{0.05, 0.2, 1.0}
	}
	if s.Objects <= 0 {
		s.Objects = 10000
	}
	if s.Fields <= 0 {
		s.Fields = 24
	}
	if len(s.Boxes) == 0 {
		box := SkyBox{RABase: s.RABase, DecBase: s.DecBase, RASpread: s.RASpread, DecSpread: s.DecSpread}
		if box.RASpread <= 0 {
			box.RASpread = 332
		}
		if box.DecSpread <= 0 {
			box.DecBase, box.DecSpread = -25, 51
		}
		s.Boxes = []SkyBox{box}
	}
	if s.RatePerSec <= 0 {
		s.RatePerSec = 200
	}
	return s
}

// GenTrace generates a request trace: Poisson arrivals, Zipf-hot object
// lookups, and cone searches whose centres are Zipf-popular field centres
// with small per-request jitter absent (popular fields repeat exactly, which
// is what exercises the result cache the way repeated archive queries do).
func GenTrace(spec TraceSpec) []Request {
	spec = spec.withDefaults()
	rng := rand.New(rand.NewSource(spec.Seed))
	objZipf := rand.NewZipf(rng, spec.ZipfS, 1, uint64(spec.Objects-1))
	fieldZipf := rand.NewZipf(rng, spec.ZipfS, 1, uint64(spec.Fields-1))

	// Pre-draw the field centres so field k is stable for a given seed.
	// Centres cycle through the footprint boxes, so every loaded file's sky
	// gets queried and popular fields land on real rows.
	type field struct{ ra, dec float64 }
	fields := make([]field, spec.Fields)
	for i := range fields {
		box := spec.Boxes[i%len(spec.Boxes)]
		fields[i] = field{
			ra:  wrapRA(box.RABase + rng.Float64()*box.RASpread),
			dec: clampDec(box.DecBase + rng.Float64()*box.DecSpread),
		}
	}

	interArrival := float64(time.Second) / spec.RatePerSec
	var now float64
	out := make([]Request, 0, spec.Queries)
	for i := 0; i < spec.Queries; i++ {
		now += rng.ExpFloat64() * interArrival
		var q queries.Query
		switch {
		case rng.Float64() < spec.ConeFrac:
			f := fields[fieldZipf.Uint64()]
			radius := spec.Radii[rng.Intn(len(spec.Radii))]
			q = queries.Cone{RA: f.ra, Dec: f.dec, RadiusDeg: radius}
		case spec.Frames > 0 && rng.Float64() < 0.1:
			// Frame ids carry the same per-file IDBase offset as object ids
			// (the generator allocates every tag's ids from IDBase).
			q = queries.FrameObjects{FrameID: spec.IDBase + 1 + int64(objZipf.Uint64())%spec.Frames}
		default:
			q = queries.ObjectLookup{ObjectID: spec.IDBase + 1 + int64(objZipf.Uint64())}
		}
		out = append(out, Request{Arrival: time.Duration(now), Query: q})
	}
	return out
}

func wrapRA(ra float64) float64 {
	for ra < 0 {
		ra += 360
	}
	for ra >= 360 {
		ra -= 360
	}
	return ra
}

func clampDec(dec float64) float64 {
	if dec > 89.5 {
		return 89.5
	}
	if dec < -89.5 {
		return -89.5
	}
	return dec
}

// Trace CSV columns.  object_id serves double duty as the frame id for frame
// queries and the bin width (millimags) for histogram queries.  Arrivals are
// stored in integer nanoseconds so a replayed trace schedules at exactly the
// original virtual times — the DES engine's determinism extends to archived
// traces.
var traceHeader = []string{"arrival_ns", "class", "object_id", "ra", "dec", "radius_deg"}

// WriteTrace writes the trace as CSV, one row per request, so a generated
// workload can be archived and replayed byte-for-byte.
func WriteTrace(w io.Writer, reqs []Request) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(traceHeader); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for i, r := range reqs {
		rec := []string{strconv.FormatInt(int64(r.Arrival), 10), r.Query.Class(), "", "", "", ""}
		switch q := r.Query.(type) {
		case queries.Cone:
			rec[3], rec[4], rec[5] = f(q.RA), f(q.Dec), f(q.RadiusDeg)
		case queries.ObjectLookup:
			rec[2] = strconv.FormatInt(q.ObjectID, 10)
		case queries.FrameObjects:
			rec[2] = strconv.FormatInt(q.FrameID, 10)
		case queries.MagHistogram:
			rec[2] = strconv.FormatInt(int64(math.Round(q.BinWidth*1000)), 10)
		default:
			return fmt.Errorf("serve: request %d has unsupported query class %q", i, r.Query.Class())
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadTrace parses a CSV trace written by WriteTrace.  Requests are returned
// sorted by arrival time.
func ReadTrace(r io.Reader) ([]Request, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("serve: empty trace")
	}
	start := 0
	if rows[0][0] == traceHeader[0] {
		start = 1
	}
	out := make([]Request, 0, len(rows)-start)
	for i, row := range rows[start:] {
		if len(row) != len(traceHeader) {
			return nil, fmt.Errorf("serve: trace row %d has %d fields, want %d", i+1, len(row), len(traceHeader))
		}
		ns, err := strconv.ParseInt(row[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("serve: trace row %d: bad arrival %q", i+1, row[0])
		}
		req := Request{Arrival: time.Duration(ns)}
		switch row[1] {
		case queries.ClassCone:
			ra, err1 := strconv.ParseFloat(row[3], 64)
			dec, err2 := strconv.ParseFloat(row[4], 64)
			rad, err3 := strconv.ParseFloat(row[5], 64)
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fmt.Errorf("serve: trace row %d: bad cone parameters", i+1)
			}
			req.Query = queries.Cone{RA: ra, Dec: dec, RadiusDeg: rad}
		case queries.ClassLookup:
			id, err := strconv.ParseInt(row[2], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("serve: trace row %d: bad object id %q", i+1, row[2])
			}
			req.Query = queries.ObjectLookup{ObjectID: id}
		case queries.ClassFrame:
			id, err := strconv.ParseInt(row[2], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("serve: trace row %d: bad frame id %q", i+1, row[2])
			}
			req.Query = queries.FrameObjects{FrameID: id}
		case queries.ClassHistogram:
			mm, err := strconv.ParseInt(row[2], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("serve: trace row %d: bad bin width %q", i+1, row[2])
			}
			req.Query = queries.MagHistogram{BinWidth: float64(mm) / 1000}
		default:
			return nil, fmt.Errorf("serve: trace row %d: unknown class %q", i+1, row[1])
		}
		out = append(out, req)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Arrival < out[j].Arrival })
	return out, nil
}
