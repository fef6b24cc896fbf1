// Package exec defines the execution abstraction that decouples the
// SkyLoader cluster from the engine that runs it.  Everything above this
// package — the sqlbatch client/server layer, the bulk loader, the parallel
// cluster coordinator — is written against three small interfaces:
//
//   - Scheduler: spawns workers, owns the clock and the contended resources.
//   - Worker:    the handle a running loader uses to read the clock and to
//     spend (virtual or real) time.
//   - Resource:  a counted, FIFO-queued resource such as server CPUs, disk
//     channels or transaction slots.
//
// Two implementations exist:
//
//   - NewDES(seed) runs on the deterministic discrete-event kernel of
//     internal/des, which is this package's implementation: nothing else
//     outside tests imports it.  At most one worker runs at any instant,
//     time is virtual, and a given seed always reproduces the same trace —
//     this is the mode every §5 figure of the paper is regenerated in.
//
//   - NewRealtime runs every worker as a plain goroutine with wall-clock
//     timing and sync.Mutex/sync.Cond-backed resources.  Loaders really run
//     in parallel, so a multi-core host shows genuine scaling, bounded by
//     the same transaction-slot limit the paper ran into.
//
// The contract shared by both: a worker must only be used by the goroutine
// the scheduler started for it, Resource.Acquire blocks the calling worker
// until the units are granted, and Run returns once all spawned workers have
// finished.  A worker that panics fails the run on both engines: the DES
// kernel re-raises the panic, naming the worker, from Run on its caller's
// goroutine; in realtime mode it is an unrecovered goroutine panic and ends
// the program.
package exec

import "time"

// Clock exposes the scheduler's notion of elapsed time: virtual time in DES
// mode, wall-clock time since scheduler creation in realtime mode.
type Clock interface {
	// Now returns the time elapsed since the scheduler started.
	Now() time.Duration
}

// Worker is the execution handle passed to a spawned task.  Methods must be
// called only from the goroutine running the task body.
type Worker interface {
	Clock
	// Name returns the name given at spawn time.
	Name() string
	// Sleep advances the worker's clock by d: in DES mode the worker parks
	// while virtual time passes; in realtime mode it returns at once, so
	// simulated service costs do not slow a real load down.
	Sleep(d time.Duration)
}

// Resource is a counted, FIFO-queued resource (CPUs, disk channels,
// transaction slots).  Acquire blocks the calling worker until the requested
// units are available; Release returns units and wakes queued waiters in
// arrival order.
type Resource interface {
	Name() string
	Capacity() int
	InUse() int
	QueueLen() int
	Acquire(w Worker, n int)
	Release(w Worker, n int)
	Stats() ResourceStats
}

// ResourceStats reports usage statistics for a resource.
type ResourceStats struct {
	Name          string
	Capacity      int
	Grants        int
	Waits         int
	TotalWait     time.Duration
	MaxInUse      int
	MaxQueueDepth int
	// Utilization is mean in-use units divided by capacity over the elapsed
	// time (0 if no time has elapsed).
	Utilization float64
}

// InlineRunner is the optional scheduler capability the network front door
// needs: running a worker body synchronously on the calling goroutine, so a
// transport that already owns a goroutine per request (an HTTP handler) can
// enter the scheduler's resource discipline without a spawn/join round trip.
// The realtime scheduler implements it — a goroutine is a goroutine, only
// the Worker handle matters.  The DES scheduler deliberately does not:
// virtual time has no meaning for a caller arriving on a real socket, and
// the kernel's single-runner discipline cannot admit foreign goroutines.
type InlineRunner interface {
	// RunInline executes fn with a Worker on the calling goroutine and
	// returns when fn does.
	RunInline(name string, fn func(Worker))
}

// Scheduler runs workers against a shared clock and a set of resources.
type Scheduler interface {
	Clock
	// Spawn starts a new worker running fn.  In DES mode the body runs under
	// the kernel's single-runner discipline; in realtime mode it runs on its
	// own goroutine immediately.
	Spawn(name string, fn func(Worker))
	// SpawnAt starts a new worker after delay d: virtual time in DES mode,
	// a real delay from the call in realtime mode.
	SpawnAt(d time.Duration, name string, fn func(Worker))
	// NewResource creates a resource with the given capacity.
	NewResource(name string, capacity int) Resource
	// Run drives the workload to completion and returns the elapsed time:
	// it drains the event heap in DES mode and joins all worker goroutines
	// in realtime mode.
	Run() time.Duration
	// RandFloat64 draws from the scheduler's random source: the kernel's
	// seeded deterministic stream in DES mode, a mutex-guarded source in
	// realtime mode.
	RandFloat64() float64
	// Deterministic reports whether the scheduler replays identically for a
	// given seed (true for DES, false for realtime).  Layers that must keep
	// figure outputs byte-identical use it to pick deterministic code paths.
	Deterministic() bool
	// forkJoin is the engine half of Fanout: run fn(worker, i) once per name
	// on workers of their own and block w until all have returned.
	forkJoin(w Worker, names []string, fn func(Worker, int))
}

// Fanout runs fn(worker, i) once per name, in parallel, and blocks the calling
// worker w until every branch has returned — the one fork-join both engines
// implement: kernel processes joined by signals under DES, goroutines on
// inline workers joined by a wait group under realtime.  A single branch runs
// on w itself.
func Fanout(s Scheduler, w Worker, names []string, fn func(Worker, int)) {
	switch len(names) {
	case 0:
	case 1:
		fn(w, 0)
	default:
		s.forkJoin(w, names, fn)
	}
}
