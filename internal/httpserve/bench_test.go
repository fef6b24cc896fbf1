package httpserve

import (
	"net/http/httptest"
	"strings"
	"testing"

	"skyloader/internal/queries"
)

// BenchmarkServeHTTPQuery measures one query request through the whole HTTP
// path — mux, parse, inline worker admission, cache, execute, JSON encode —
// without socket noise (in-process handler dispatch).  The ReportAllocs
// output is the tracked number (httpserve.allocs_per_query in a traced
// `make perf` run), and the sampled-tracing variant bounds the trace layer's
// overhead.
func BenchmarkServeHTTPQuery(b *testing.B) {
	bench := func(b *testing.B, cfg Config) {
		env := newHTTPEnv(b, cfg)
		h := env.front.Handler()
		u, _ := QueryURL(queries.ObjectLookup{ObjectID: 100_000_010})
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
	b.Run("untraced", func(b *testing.B) { bench(b, Config{TraceEvery: 1 << 30}) })
	b.Run("traced", func(b *testing.B) { bench(b, Config{TraceEvery: 1}) })
	b.Run("sampled16", func(b *testing.B) { bench(b, Config{TraceEvery: 16}) })
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
