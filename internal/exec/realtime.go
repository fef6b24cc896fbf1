package exec

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// RealtimeConfig controls the real-concurrency runtime.
type RealtimeConfig struct {
	// Seed seeds the runtime's random source (contention draws).  The source
	// is mutex-guarded; with goroutines racing for it the draw *sequence* is
	// not reproducible, only the distribution.
	Seed int64
	// TimeScale multiplies Worker.Sleep durations into real sleeps.  The
	// default of 0 makes Sleep a no-op: simulated service costs (the DES cost
	// model) are skipped entirely and a load runs as fast as the hardware
	// allows, which is what -wallclock mode measures.  Set it to 1.0 to pace
	// a real run at the cost model's predicted speed, or to e.g. 0.001 to
	// compress predicted time a thousandfold.
	TimeScale float64
}

// Realtime is the goroutine-backed Scheduler: every spawned worker is a real
// goroutine, the clock is the wall clock, and resources block on
// sync.Cond-style FIFO queues.  It implements Scheduler.
type Realtime struct {
	cfg   RealtimeConfig
	start time.Time
	wg    sync.WaitGroup

	rngMu sync.Mutex
	rng   *rand.Rand
}

// NewRealtime creates a real-concurrency scheduler.  The clock starts now.
func NewRealtime(cfg RealtimeConfig) *Realtime {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &Realtime{
		cfg:   cfg,
		start: time.Now(),
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// Now returns the wall-clock time elapsed since the scheduler was created.
func (rt *Realtime) Now() time.Duration { return time.Since(rt.start) }

// Spawn starts fn on its own goroutine immediately.
func (rt *Realtime) Spawn(name string, fn func(Worker)) { rt.SpawnAt(0, name, fn) }

// SpawnAt starts fn on its own goroutine after a real delay of d scaled by
// TimeScale (with TimeScale 0 the worker starts immediately: start staggers
// belong to the simulated Condor dispatch, not to a real load).
func (rt *Realtime) SpawnAt(d time.Duration, name string, fn func(Worker)) {
	rt.wg.Add(1)
	go func() {
		defer rt.wg.Done()
		if d > 0 {
			rt.sleepScaled(d)
		}
		fn(&rtWorker{rt: rt, name: name})
	}()
}

// RunInline executes fn with a realtime Worker on the calling goroutine,
// implementing InlineRunner.  The caller's goroutine stands in for a spawned
// worker: it may acquire and release resources (FIFO-fair with spawned
// workers) and read the scheduler clock.  Inline work is intentionally NOT
// tracked by Run's wait group — a long-lived network server calls RunInline
// per request while Run-driven workloads come and go.
func (rt *Realtime) RunInline(name string, fn func(Worker)) {
	fn(&rtWorker{rt: rt, name: name})
}

// NewResource creates a mutex/condition-backed counted resource.
func (rt *Realtime) NewResource(name string, capacity int) Resource {
	if capacity <= 0 {
		panic(fmt.Sprintf("exec: resource %q must have positive capacity", name))
	}
	return &rtResource{rt: rt, name: name, capacity: capacity}
}

// Run waits for every spawned worker (including workers spawned by workers)
// to finish and returns the wall-clock elapsed time.
func (rt *Realtime) Run() time.Duration {
	rt.wg.Wait()
	return rt.Now()
}

// RandFloat64 draws from the mutex-guarded random source.
func (rt *Realtime) RandFloat64() float64 {
	rt.rngMu.Lock()
	defer rt.rngMu.Unlock()
	return rt.rng.Float64()
}

// Deterministic reports false: goroutine interleaving is up to the Go
// runtime and the host.
func (rt *Realtime) Deterministic() bool { return false }

func (rt *Realtime) forkJoin(w Worker, names []string, fn func(Worker, int)) {
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go rt.RunInline(name, func(fw Worker) {
			defer wg.Done()
			fn(fw, i)
		})
	}
	wg.Wait()
}

func (rt *Realtime) sleepScaled(d time.Duration) {
	if rt.cfg.TimeScale <= 0 || d <= 0 {
		return
	}
	time.Sleep(time.Duration(float64(d) * rt.cfg.TimeScale))
}

type rtWorker struct {
	rt   *Realtime
	name string
}

func (w *rtWorker) Name() string          { return w.name }
func (w *rtWorker) Now() time.Duration    { return w.rt.Now() }
func (w *rtWorker) Sleep(d time.Duration) { w.rt.sleepScaled(d) }

// rtWaiter is one queued Acquire request; grant is closed by the releaser
// once the units have been assigned to the waiter.
type rtWaiter struct {
	n     int
	since time.Duration
	grant chan struct{}
}

// rtResource is a counted resource with strict-FIFO admission: a request
// queues behind earlier requests even when enough units are free for it, the
// same discipline des.Resource enforces.
type rtResource struct {
	rt       *Realtime
	name     string
	capacity int

	mu      sync.Mutex
	inUse   int
	waiters []*rtWaiter

	grantCount    int
	waitCount     int
	totalWait     time.Duration
	busyIntegral  time.Duration
	lastChange    time.Duration
	maxInUse      int
	maxQueueDepth int
}

func (r *rtResource) Name() string  { return r.name }
func (r *rtResource) Capacity() int { return r.capacity }

func (r *rtResource) InUse() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.inUse
}

func (r *rtResource) QueueLen() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.waiters)
}

// accumulate updates the busy-time integral; r.mu must be held.
func (r *rtResource) accumulate() {
	now := r.rt.Now()
	if dt := now - r.lastChange; dt > 0 {
		r.busyIntegral += time.Duration(int64(dt) * int64(r.inUse))
	}
	r.lastChange = now
}

func (r *rtResource) Acquire(w Worker, n int) {
	if n <= 0 {
		return
	}
	if n > r.capacity {
		panic(fmt.Sprintf("exec: acquire %d units of %q exceeds capacity %d", n, r.name, r.capacity))
	}
	r.mu.Lock()
	if len(r.waiters) == 0 && r.inUse+n <= r.capacity {
		r.accumulate()
		r.inUse += n
		if r.inUse > r.maxInUse {
			r.maxInUse = r.inUse
		}
		r.grantCount++
		r.mu.Unlock()
		return
	}
	wt := &rtWaiter{n: n, since: r.rt.Now(), grant: make(chan struct{})}
	r.waiters = append(r.waiters, wt)
	if len(r.waiters) > r.maxQueueDepth {
		r.maxQueueDepth = len(r.waiters)
	}
	r.waitCount++
	r.mu.Unlock()

	<-wt.grant

	r.mu.Lock()
	r.totalWait += r.rt.Now() - wt.since
	r.mu.Unlock()
}

func (r *rtResource) Release(w Worker, n int) {
	if n <= 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if n > r.inUse {
		panic(fmt.Sprintf("exec: release %d units of %q but only %d in use", n, r.name, r.inUse))
	}
	r.accumulate()
	r.inUse -= n
	for len(r.waiters) > 0 {
		wt := r.waiters[0]
		if r.inUse+wt.n > r.capacity {
			break
		}
		r.waiters = r.waiters[1:]
		r.accumulate()
		r.inUse += wt.n
		if r.inUse > r.maxInUse {
			r.maxInUse = r.inUse
		}
		r.grantCount++
		close(wt.grant)
	}
}

func (r *rtResource) Stats() ResourceStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.accumulate()
	elapsed := r.rt.Now()
	util := 0.0
	if elapsed > 0 {
		util = float64(r.busyIntegral) / float64(int64(elapsed)*int64(r.capacity))
	}
	return ResourceStats{
		Name:          r.name,
		Capacity:      r.capacity,
		Grants:        r.grantCount,
		Waits:         r.waitCount,
		TotalWait:     r.totalWait,
		MaxInUse:      r.maxInUse,
		MaxQueueDepth: r.maxQueueDepth,
		Utilization:   util,
	}
}
