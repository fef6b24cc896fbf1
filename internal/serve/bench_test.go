package serve

import (
	"fmt"
	"testing"

	"skyloader/internal/catalog"
	"skyloader/internal/core"
	"skyloader/internal/exec"
	"skyloader/internal/parallel"
	"skyloader/internal/relstore"
	"skyloader/internal/tuning"
)

// benchTrace is a cone-heavy workload against the benchmark catalog.
func benchTrace(n int, coneFrac float64) []Request {
	return GenTrace(TraceSpec{
		Queries:  n,
		Seed:     41,
		ConeFrac: coneFrac,
		Objects:  4000,
		IDBase:   100_000_000,
		Frames:   200,
		Fields:   16,
		RABase:   0, DecBase: -20, RASpread: 350, DecSpread: 40,
		RatePerSec: 1e9, // all requests effectively arrive immediately
	})
}

// BenchmarkConeSearchServe serves a cone-heavy trace on the realtime engine
// with 1/2/4/8 query workers over a pre-loaded repository.  On a 1-CPU host
// the worker counts timeshare one core and measure handoff/locking overhead,
// not parallel speedup; serve-hot and serve-mixed in bench/README.md are
// the measured workloads (make perf).
func BenchmarkConeSearchServe(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers_%d", workers), func(b *testing.B) {
			env := newServeEnv(b, exec.NewRealtime(exec.RealtimeConfig{Seed: 1}), tuning.HTMIDOnly, Config{
				Workers:    workers,
				QueueDepth: 1 << 20,
			})
			env.loadFiles(b, testFiles(4, 12, 41), 2)
			trace := benchTrace(400, 1.0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// A fresh server per iteration isolates cache state; the
				// database (and its htmid index) is shared and read-only.
				qs := NewServer(exec.NewRealtime(exec.RealtimeConfig{Seed: 1}), env.db, Config{
					Workers:    workers,
					QueueDepth: 1 << 20,
				})
				rep := qs.Serve(trace)
				if rep.Served != rep.Requests {
					b.Fatalf("served %d of %d", rep.Served, rep.Requests)
				}
			}
		})
	}
}

// BenchmarkMixedLoadServe runs the full mixed scenario per iteration: a
// parallel bulk load racing a mixed query trace on the realtime engine.
func BenchmarkMixedLoadServe(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers_%d", workers), func(b *testing.B) {
			files := testFiles(4, 8, 43)
			trace := benchTrace(300, 0.4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sched := exec.NewRealtime(exec.RealtimeConfig{Seed: 1})
				env := newServeEnv(b, sched, tuning.HTMIDOnly, Config{
					Workers:    workers,
					QueueDepth: 1 << 20,
				})
				res, err := RunMixed(env.load, files, parallel.Config{
					Loaders: 2,
					Loader:  core.Config{BatchSize: 40, ArraySize: 1000},
				}, env.server, trace)
				if err != nil {
					b.Fatal(err)
				}
				if res.Serve.Served == 0 {
					b.Fatal("nothing served")
				}
			}
		})
	}
}

// BenchmarkCacheGetHit prices one cache hit including the epoch check.
func BenchmarkCacheGetHit(b *testing.B) {
	db := catalogDBForBench(b)
	c := NewCache(8, 128)
	epoch, _ := db.ReadStamp(catalog.TObjects)
	c.Put(db, "bench-key", catalog.TObjects, epoch, lookupResult(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(db, "bench-key"); !ok {
			b.Fatal("miss")
		}
	}
}

func catalogDBForBench(b *testing.B) *relstore.DB {
	env := newServeEnv(b, exec.NewRealtime(exec.RealtimeConfig{Seed: 1}), tuning.HTMIDOnly, DefaultConfig())
	return env.db
}
