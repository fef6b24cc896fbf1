package httpserve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"skyloader/internal/queries"
)

// BenchmarkServeHTTPQuery measures one query request through the whole HTTP
// path — mux, parse, inline worker admission, cache, execute, response body —
// without socket noise (in-process handler dispatch).  The ReportAllocs
// output is the tracked number (httpserve.allocs_per_query in a traced
// `make perf` run), and the sampled-tracing variant bounds the trace layer's
// overhead.  The lookup cases are one-object hits; the cone hit sends the
// 28-object answer of classQueries' cone, the case where sending the body the
// cache stores, rather than encoding the result again, pays.
func BenchmarkServeHTTPQuery(b *testing.B) {
	bench := func(b *testing.B, cfg Config, q queries.Query) {
		env := newHTTPEnv(b, cfg)
		h := env.front.Handler()
		u, _ := QueryURL(q)
		// Prime the result cache so the loop measures the hot path.
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", u, nil))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", u, nil))
			if rec.Code != 200 {
				b.Fatalf("status %d", rec.Code)
			}
		}
	}
	// TraceEvery 1<<30: effectively untraced.  TraceEvery 1: every request
	// carries a trace.Req through all four stages and publishes to the ring.
	lookup := queries.ObjectLookup{ObjectID: 100_000_010}
	b.Run("untraced", func(b *testing.B) { bench(b, Config{TraceEvery: 1 << 30}, lookup) })
	b.Run("traced", func(b *testing.B) { bench(b, Config{TraceEvery: 1}, lookup) })
	b.Run("sampled16", func(b *testing.B) { bench(b, Config{TraceEvery: 16}, lookup) })
	b.Run("cone-hit", func(b *testing.B) { bench(b, Config{TraceEvery: 16}, classQueries()[0]) })
}

// BenchmarkResponseEncode prices encoding one answer's body both ways: the
// append encoder a miss runs (a hit runs neither) and the json.Encoder every
// request ran before bodies were cached.
func BenchmarkResponseEncode(b *testing.B) {
	for _, n := range []int{60, 240} {
		res := coneAnswer(n)
		b.Run(fmt.Sprintf("append/%d", n), func(b *testing.B) {
			b.ReportAllocs()
			buf := make([]byte, headRoom, 64<<10) // a pooled buffer that has grown
			for i := 0; i < b.N; i++ {
				body, err := appendAnswer(buf, res)
				if err != nil {
					b.Fatal(err)
				}
				frame(body, uint64(i), "served", 1234)
			}
		})
		b.Run(fmt.Sprintf("json/%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := json.NewEncoder(io.Discard).Encode(QueryResponse{RequestID: uint64(i), Outcome: "served",
					ElapsedNS: 1234, Objects: res.Objects, Stats: res.Stats}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMetricsScrape measures one full /metrics render: every engine,
// serving, transport and trace series, including four 140-bucket histograms.
func BenchmarkMetricsScrape(b *testing.B) {
	env := newHTTPEnv(b, Config{})
	h := env.front.Handler()
	u, _ := QueryURL(queries.Cone{RA: 30, Dec: -10, RadiusDeg: 2})
	for i := 0; i < 100; i++ {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", u, nil))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sb strings.Builder
		if err := env.front.WriteMetrics(&sb); err != nil {
			b.Fatal(err)
		}
	}
}
