package httpserve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"skyloader/internal/exec"
	"skyloader/internal/metrics"
	"skyloader/internal/queries"
	"skyloader/internal/serve"
	"skyloader/internal/trace"
)

// A FuzzResponseEncode input is a stream of little-endian 64-bit words (a
// word past the end reads 0): the request id, elapsed_ns, a flags word (bit
// 0 a cache hit, bit 1 objects, bit 2 bins, bit 3 an absent list is empty
// rather than nil, bits 8-15 the number of bins), the four stats, the bins
// (three words each: Low and High as float64 bits, Count) and then objects
// (six words each: ObjectID, FrameID, RA, Dec, HTMID, Mag) to the end.
const (
	seedHit = 1 << iota
	seedObjects
	seedBins
	seedEmpty
)

type fuzzResponse struct {
	id      uint64
	elapsed int64
	outcome string
	res     queries.Result
}

func decodeFuzzResponse(data []byte) fuzzResponse {
	word := func() uint64 {
		var w [8]byte
		data = data[copy(w[:], data):]
		return binary.LittleEndian.Uint64(w[:])
	}
	r := fuzzResponse{id: word(), elapsed: int64(word()), outcome: serve.OutcomeServed.String()}
	flags := word()
	if flags&seedHit != 0 {
		r.outcome = serve.OutcomeCacheHit.String()
	}
	r.res.Stats = queries.Stats{RowsExamined: int(word()), RowsReturned: int(word()), UsedIndex: word()&1 == 1, TrixelsScanned: int(word())}
	if flags&seedBins != 0 {
		if flags&seedEmpty != 0 {
			r.res.Bins = []queries.MagnitudeBin{}
		}
		for n := int(flags>>8) & 0xff; n > 0; n-- {
			r.res.Bins = append(r.res.Bins, queries.MagnitudeBin{
				Low: math.Float64frombits(word()), High: math.Float64frombits(word()), Count: int64(word())})
		}
	}
	if flags&seedObjects != 0 {
		if flags&seedEmpty != 0 {
			r.res.Objects = []queries.Object{}
		}
		for len(data) >= 48 {
			r.res.Objects = append(r.res.Objects, queries.Object{
				ObjectID: int64(word()), FrameID: int64(word()), RA: math.Float64frombits(word()),
				Dec: math.Float64frombits(word()), HTMID: int64(word()), Mag: math.Float64frombits(word())})
		}
	}
	return r
}

// FuzzResponseEncode holds the body the query handler sends for an answer —
// frame over appendAnswer, as built in a pooled buffer — to
// json.NewEncoder(w).Encode(QueryResponse{...}) byte for byte, and requires
// both to refuse the same answers (a NaN or infinity anywhere).  The seed
// corpus (testdata/fuzz/FuzzResponseEncode, rewritten by
// -write-response-seeds) covers -0, 1e-7, 1e21, 5e-324, ±MaxFloat64, the
// widest head, empty and nil lists, and 15-, 60- and 240-object answers.
func FuzzResponseEncode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r := decodeFuzzResponse(data)
		var want bytes.Buffer
		wantErr := json.NewEncoder(&want).Encode(QueryResponse{
			RequestID: r.id, Outcome: r.outcome, ElapsedNS: r.elapsed,
			Objects: r.res.Objects, Bins: r.res.Bins, Stats: r.res.Stats,
		})
		buf, err := appendAnswer(make([]byte, headRoom), r.res)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("appendAnswer error %v, json.Encoder error %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if got := frame(buf, r.id, r.outcome, r.elapsed); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("body differs from json.Encoder's\n got %s\nwant %s", got, want.Bytes())
		}
	})
}

var writeResponseSeeds = flag.Bool("write-response-seeds", false, "rewrite FuzzResponseEncode's seed corpus")

// TestWriteResponseSeeds rewrites testdata/fuzz/FuzzResponseEncode; run it
// with -write-response-seeds after changing the input layout above.
func TestWriteResponseSeeds(t *testing.T) {
	if !*writeResponseSeeds {
		t.Skip("run with -write-response-seeds to rewrite the corpus")
	}
	type words []uint64
	f := math.Float64bits
	edges := []float64{math.Copysign(0, -1), 1e-7, 1e21, 5e-324, math.MaxFloat64, -math.MaxFloat64,
		1e-6, 999999999999999999999, 0.1, -123456789.125, 2.5e-8, 1e20}
	realistic := func(n int, seed int64) words {
		rng := rand.New(rand.NewSource(seed))
		var w words
		for i := 0; i < n; i++ {
			w = append(w, uint64(100_000_000+i), uint64(100_000+i/20),
				f(math.Round(rng.Float64()*360e6)/1e6), f(math.Round((rng.Float64()*180-90)*1e6)/1e6),
				uint64(rng.Int63n(1<<40)), f(math.Round((14+rng.Float64()*10)*100)/100))
		}
		return w
	}
	seeds := map[string]words{
		"widest-head": {math.MaxUint64, 1 << 63, seedHit, 0, 0, 0, 0},
		"nil-lists":   {1, 2, seedObjects | seedBins, 3, 0, 0, 0},
		"empty-lists": {1, 2, seedObjects | seedBins | seedEmpty, 3, 0, 1, 7},
		"nan-mag":     {5, 6, seedObjects, 1, 1, 1, 1, 9, 9, f(10), f(-10), 9, f(math.NaN())},
		"inf-bin":     {5, 6, seedBins | 1<<8, 1, 1, 0, 0, f(math.Inf(1)), f(1), 1},
	}
	for _, n := range []int{15, 60, 240} {
		seeds["cone-"+strconv.Itoa(n)] = append(words{uint64(n), 41_000, seedObjects | seedHit, uint64(4 * n), uint64(n), 1, 12}, realistic(n, int64(n))...)
	}
	objs := words{7, 123_456, seedObjects, 10, 10, 1, 3}
	bins := words{8, 654_321, seedBins | uint64(len(edges))<<8, 10, 10, 0, 0}
	for i, e := range edges {
		objs = append(objs, uint64(math.MinInt64+i), uint64(math.MaxInt64-i), f(e), f(-e), uint64(i), f(e/3))
		bins = append(bins, f(e), f(e*2), uint64(i))
	}
	seeds["edge-floats-objects"], seeds["edge-floats-bins"] = objs, bins

	dir := filepath.Join("testdata", "fuzz", "FuzzResponseEncode")
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, w := range seeds {
		data := make([]byte, 0, 8*len(w))
		for _, x := range w {
			data = binary.LittleEndian.AppendUint64(data, x)
		}
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// stubEngine answers every query with res, cacheable at a fixed epoch.
type stubEngine struct{ res queries.Result }

func (stubEngine) TableEpoch(string) int64 { return 1 }

func (e stubEngine) Read(exec.Worker, queries.Query, *trace.Req) (queries.Result, int64, bool, error) {
	return e.res, 1, true, nil
}

// stubBackend is a front door backend with nothing of its own to report.
type stubBackend struct{}

func (stubBackend) unready() string                  { return "" }
func (stubBackend) stats(*StatsResponse)             {}
func (stubBackend) writeMetrics(*metrics.PromWriter) {}

// newStubFront fronts a serve.Server over stubEngine{res}, result cache on;
// drive it through its Handler.
func newStubFront(t testing.TB, res queries.Result) *Server {
	t.Helper()
	sched := exec.NewRealtime(exec.RealtimeConfig{Seed: 3})
	front, err := newServer(serve.NewEngineServer(sched, stubEngine{res}, serve.Config{Workers: 2, QueueDepth: 100}), stubBackend{}, Config{TraceEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	return front
}

// coneAnswer is a cone-search answer of n objects.
func coneAnswer(n int) queries.Result {
	res := queries.Result{Stats: queries.Stats{RowsExamined: 2 * n, RowsReturned: n, UsedIndex: true, TrixelsScanned: 9}}
	for i := 0; i < n; i++ {
		res.Objects = append(res.Objects, queries.Object{ObjectID: int64(100_000_000 + i), FrameID: 7,
			RA: 120 + float64(i)*1e-4, Dec: -30.000001 * float64(i%3), HTMID: int64(1<<39 + i), Mag: 18.25})
	}
	return res
}

// TestCachedHitIsNotEncoded pins the hit path: the answer to a 240-object
// cone is encoded once, when it misses, and every hit after that sends the
// bytes the cache stored — the same bytes json.Encoder writes, in one
// response with Content-Length set.
func TestCachedHitIsNotEncoded(t *testing.T) {
	res := coneAnswer(240)
	h := newStubFront(t, res).Handler()
	encodes := countEncodes(t)
	u, _ := QueryURL(queries.Cone{RA: 120, Dec: -30, RadiusDeg: 1})
	for i := 1; i <= 5; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", u, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, rec.Code, rec.Body.Bytes())
		}
		if n := encodes.Load(); n != 1 {
			t.Fatalf("after %d requests the answer was encoded %d times, want once (the miss)", i, n)
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
			t.Fatalf("Content-Length %q for a %d-byte body", cl, rec.Body.Len())
		}
		var got QueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		want := QueryResponse{RequestID: got.RequestID, Outcome: serve.OutcomeCacheHit.String(), ElapsedNS: got.ElapsedNS,
			Objects: res.Objects, Stats: res.Stats}
		if i == 1 {
			want.Outcome = serve.OutcomeServed.String()
		}
		var wantBody bytes.Buffer
		if err := json.NewEncoder(&wantBody).Encode(want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rec.Body.Bytes(), wantBody.Bytes()) {
			t.Fatalf("request %d: body differs from json.Encoder's", i)
		}
	}
}

// TestUnencodableAnswerIs500: an answer JSON cannot carry (a NaN magnitude)
// is an error — a 500 with a JSON error body, counted by the serve layer and
// never cached — not a 200 with an empty body.
func TestUnencodableAnswerIs500(t *testing.T) {
	res := coneAnswer(3)
	res.Objects[1].Mag = math.NaN()
	front := newStubFront(t, res)
	h := front.Handler()
	u, _ := QueryURL(queries.Cone{RA: 120, Dec: -30, RadiusDeg: 1})
	for i := 0; i < 2; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", u, nil))
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("status %d, want 500: %s", rec.Code, rec.Body.Bytes())
		}
		var got QueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatalf("error body %q: %v", rec.Body.Bytes(), err)
		}
		if got.Outcome != serve.OutcomeError.String() || got.Error == "" || len(got.Objects) != 0 {
			t.Fatalf("error body %+v", got)
		}
	}
	if c := front.qs.Counters(); c.Errors != 2 || c.Served != 0 {
		t.Fatalf("serve counters %+v, want 2 errors and nothing served", c)
	}
	if st := front.qs.Cache().Stats(); st.Stores != 0 || st.Hits != 0 {
		t.Fatalf("cache %+v: an unencodable answer was cached", st)
	}
}
