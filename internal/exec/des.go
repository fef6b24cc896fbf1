package exec

import (
	"fmt"
	"time"

	"skyloader/internal/des"
)

// NewDES returns a Scheduler on a fresh discrete-event kernel whose random
// source is seeded with seed.  The adapter delegates directly: spawn order,
// event ordering and random draws are exactly those of the kernel, so the
// same seed always reproduces the same trace.  Run re-raises a worker's
// panic on its caller's goroutine; a scheduler whose Run panicked must not
// be run again.
func NewDES(seed int64) Scheduler { return &desScheduler{k: des.NewKernel(seed)} }

type desScheduler struct {
	k *des.Kernel
}

func (s *desScheduler) Now() time.Duration { return s.k.Now() }

func (s *desScheduler) Spawn(name string, fn func(Worker)) {
	s.k.Spawn(name, func(p *des.Proc) { fn(&desWorker{p: p}) })
}

func (s *desScheduler) SpawnAt(d time.Duration, name string, fn func(Worker)) {
	s.k.SpawnAt(d, name, func(p *des.Proc) { fn(&desWorker{p: p}) })
}

func (s *desScheduler) NewResource(name string, capacity int) Resource {
	return &desResource{r: des.NewResource(s.k, name, capacity)}
}

func (s *desScheduler) Run() time.Duration { return s.k.Run() }

func (s *desScheduler) RandFloat64() float64 { return s.k.Rand().Float64() }

func (s *desScheduler) Deterministic() bool { return true }

func (s *desScheduler) forkJoin(w Worker, names []string, fn func(Worker, int)) {
	self := mustProc(w, "fork-join")
	sigs := make([]*des.Signal, len(names))
	for i, name := range names {
		sigs[i] = des.NewSignal(s.k)
		s.Spawn(name, func(fw Worker) {
			fn(fw, i)
			sigs[i].Fire(nil)
		})
	}
	for _, sig := range sigs {
		sig.Wait(self)
	}
}

type desWorker struct {
	p *des.Proc
}

func (w *desWorker) Name() string          { return w.p.Name() }
func (w *desWorker) Now() time.Duration    { return w.p.Now() }
func (w *desWorker) Sleep(d time.Duration) { w.p.Hold(d) }

type desResource struct {
	r *des.Resource
}

func (r *desResource) Name() string  { return r.r.Name() }
func (r *desResource) Capacity() int { return r.r.Capacity() }
func (r *desResource) InUse() int    { return r.r.InUse() }
func (r *desResource) QueueLen() int { return r.r.QueueLen() }

func (r *desResource) Acquire(w Worker, n int) {
	r.r.Acquire(mustProc(w, r.r.Name()), n)
}

func (r *desResource) Release(w Worker, n int) {
	r.r.Release(mustProc(w, r.r.Name()), n)
}

func (r *desResource) Stats() ResourceStats {
	st := r.r.Stats()
	return ResourceStats{
		Name:          st.Name,
		Capacity:      st.Capacity,
		Grants:        st.Grants,
		Waits:         st.Waits,
		TotalWait:     st.TotalWait,
		MaxInUse:      st.MaxInUse,
		MaxQueueDepth: st.MaxQueueDepth,
		Utilization:   st.Utilization,
	}
}

// mustProc returns the simulation process behind w, which must be a worker
// of a DES scheduler.
func mustProc(w Worker, resource string) *des.Proc {
	dw, ok := w.(*desWorker)
	if !ok {
		panic(fmt.Sprintf("exec: DES resource %q used with non-DES worker %q", resource, w.Name()))
	}
	return dw.p
}
