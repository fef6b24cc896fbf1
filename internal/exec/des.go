package exec

import (
	"fmt"
	"time"

	"skyloader/internal/des"
)

// NewDES wraps a discrete-event kernel in the Scheduler interface.  The
// adapter delegates directly: spawn order, event ordering and random draws
// are exactly those of the underlying kernel, so simulations driven through
// the abstraction reproduce pre-abstraction traces bit for bit.
func NewDES(k *des.Kernel) Scheduler { return &desScheduler{k: k} }

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

// Kernel returns the wrapped kernel (used by callers that drive the kernel
// directly, e.g. experiments that schedule bare events).
func (s *desScheduler) Kernel() *des.Kernel { return s.k }

// KernelOf returns the DES kernel behind a scheduler, or nil when the
// scheduler is not DES-backed.
func KernelOf(s Scheduler) *des.Kernel {
	if ds, ok := s.(interface{ Kernel() *des.Kernel }); ok {
		return ds.Kernel()
	}
	return nil
}

// WorkerForProc wraps an existing simulation process in the Worker interface
// so code that spawns processes directly on a kernel can still talk to
// exec-based layers.
func WorkerForProc(p *des.Proc) Worker { return &desWorker{p: p} }

type desWorker struct {
	p *des.Proc
}

func (w *desWorker) Name() string          { return w.p.Name() }
func (w *desWorker) Now() time.Duration    { return w.p.Now() }
func (w *desWorker) Sleep(d time.Duration) { w.p.Hold(d) }
func (w *desWorker) Proc() *des.Proc       { return w.p }

// ProcOf returns the simulation process behind a worker, or nil when the
// worker is not DES-backed.
func ProcOf(w Worker) *des.Proc {
	if dw, ok := w.(interface{ Proc() *des.Proc }); ok {
		return dw.Proc()
	}
	return nil
}

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

func mustProc(w Worker, resource string) *des.Proc {
	p := ProcOf(w)
	if p == nil {
		panic(fmt.Sprintf("exec: DES resource %q used with non-DES worker %q", resource, w.Name()))
	}
	return p
}
