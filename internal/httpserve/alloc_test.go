package httpserve

import (
	"net/http/httptest"
	"testing"

	"skyloader/internal/queries"
)

// TestQueryPathAllocGuard pins the allocation count of the hot HTTP query
// path (cache-hit object lookup, untraced).  A traced `make perf` run reports
// the measured httpserve.allocs_per_query; this guard fails CI if a change
// pushes the path past the budget — the JSON-encode + mux path runs ~34
// allocs/op today, and the budget leaves headroom for stdlib drift, not for a
// new per-request layer.
func TestQueryPathAllocGuard(t *testing.T) {
	const budget = 60
	env := newHTTPEnv(t, Config{TraceEvery: 1 << 30})
	h := env.front.Handler()
	u, _ := QueryURL(queries.ObjectLookup{ObjectID: 100_000_010})
	// Prime the result cache: the guard measures the steady state.
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", u, nil))

	allocs := testing.AllocsPerRun(200, func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", u, nil))
		if rec.Code != 200 {
			t.Fatalf("status %d", rec.Code)
		}
	})
	if allocs > budget {
		t.Fatalf("hot query path allocates %.1f/op, budget %d", allocs, budget)
	}

	// Sampled tracing must stay ~1 extra allocation (the published Req).
	envTr := newHTTPEnv(t, Config{TraceEvery: 1})
	hTr := envTr.front.Handler()
	hTr.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", u, nil))
	traced := testing.AllocsPerRun(200, func() {
		rec := httptest.NewRecorder()
		hTr.ServeHTTP(rec, httptest.NewRequest("GET", u, nil))
		if rec.Code != 200 {
			t.Fatalf("status %d", rec.Code)
		}
	})
	if traced > allocs+4 {
		t.Fatalf("tracing every request costs %.1f allocs/op over the %.1f untraced baseline; the trace layer budget is 4", traced-allocs, allocs)
	}
}
