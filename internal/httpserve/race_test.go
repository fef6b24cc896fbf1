package httpserve

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"skyloader/internal/catalog"
	"skyloader/internal/core"
	"skyloader/internal/exec"
	"skyloader/internal/metrics"
	"skyloader/internal/parallel"
	"skyloader/internal/queries"
	"skyloader/internal/relstore"
	"skyloader/internal/serve"
	"skyloader/internal/sqlbatch"
	"skyloader/internal/tuning"
)

// TestScrapeUnderQueryLoad races /metrics scrapes against query traffic and
// validates every payload: the exporter reads live atomics, so a scrape
// mid-flight must still be structurally valid (cumulative-monotone buckets,
// _count == +Inf) even while every counter it touches is moving.  Run with
// -race this is also the exporter's data-race test.
func TestScrapeUnderQueryLoad(t *testing.T) {
	env := newHTTPEnv(t, Config{TraceEvery: 4})
	h := env.front.Handler()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				var u string
				switch i % 3 {
				case 0:
					u, _ = QueryURL(queries.ObjectLookup{ObjectID: int64(100_000_000 + i%40)})
				case 1:
					u, _ = QueryURL(queries.Cone{RA: float64(i % 350), Dec: -10, RadiusDeg: 1.5})
				default:
					u, _ = QueryURL(queries.FrameObjects{FrameID: int64(1 + i%8)})
				}
				req := httptest.NewRequest("GET", u, nil)
				h.ServeHTTP(httptest.NewRecorder(), req)
				i++
			}
		}(g)
	}

	for scrape := 0; scrape < 50; scrape++ {
		var sb strings.Builder
		if err := env.front.WriteMetrics(&sb); err != nil {
			t.Fatalf("scrape %d: %v", scrape, err)
		}
		if _, err := metrics.PromValid(sb.String()); err != nil {
			t.Fatalf("scrape %d invalid under load: %v", scrape, err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestScrapeUnderIngest races /metrics and /v1/stats against a bulk load that
// maintains both secondary indexes — first per batch, then suspended by
// BeginLoad and swapped in whole by Seal.  The per-index figures come from
// B-trees the loaders write under the table lock, so the snapshot has to read
// them under it; under -race this is the test that says it does.
func TestScrapeUnderIngest(t *testing.T) {
	night := catalog.GenerateNight(catalog.NightSpec{TotalMB: 120, Files: 6, RowsPerMB: 100, Seed: 9, RunID: 1})
	for _, build := range []relstore.IndexPolicy{relstore.IndexImmediate, relstore.IndexDeferred} {
		db, err := tuning.OpenRepository(tuning.HTMIDPlusComposite, relstore.WithIndexPolicy(build))
		if err != nil {
			t.Fatal(err)
		}
		front, err := New(serve.NewServer(exec.NewRealtime(exec.RealtimeConfig{Seed: 5}), db, serve.Config{Workers: 2, QueueDepth: 100}), Config{})
		if err != nil {
			t.Fatal(err)
		}
		h := front.Handler()
		loaded := make(chan error, 1)
		go func() {
			load := sqlbatch.NewServerOn(exec.NewRealtime(exec.RealtimeConfig{Seed: 6}), db, sqlbatch.DefaultServerConfig(), sqlbatch.DefaultCostModel())
			_, err := parallel.Run(load, night, parallel.Config{
				Loaders: 2, Loader: core.Config{BatchSize: 40, ArraySize: 1000},
				SealAfterLoad: build == relstore.IndexDeferred,
			})
			loaded <- err
		}()
		for scrapes, done := 0, false; !done || scrapes < 3; scrapes++ {
			select {
			case err := <-loaded:
				if err != nil {
					t.Fatal(err)
				}
				done = true
			default:
			}
			var sb strings.Builder
			if err := front.WriteMetrics(&sb); err != nil {
				t.Fatalf("%v scrape %d: %v", build, scrapes, err)
			}
			if _, err := metrics.PromValid(sb.String()); err != nil {
				t.Fatalf("%v scrape %d invalid under ingest: %v", build, scrapes, err)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", PathStats, nil))
			if rec.Code != 200 {
				t.Fatalf("%v /v1/stats under ingest: %d", build, rec.Code)
			}
		}
		for _, ix := range db.StatsSnapshot().Indexes {
			if !ix.Ready || ix.KeyBytes == 0 || ix.ResidentBytes < ix.ArenaBytes || ix.ArenaBytes < ix.KeyBytes {
				t.Fatalf("%v: after the load index %s reports %+v", build, ix.Name, ix)
			}
		}
	}
}
