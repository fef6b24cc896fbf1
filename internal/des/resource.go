package des

import (
	"fmt"
	"time"
)

// Resource is a counted, FIFO-queued resource such as a pool of CPUs, a disk
// channel, or a limited set of database transaction slots.  Processes acquire
// some number of units, hold them while they perform work (usually by calling
// Proc.Hold), and release them.  Requests that cannot be satisfied immediately
// wait in FIFO order.
type Resource struct {
	k        *Kernel
	name     string
	capacity int
	inUse    int

	waiters []*resWaiter

	// statistics
	totalWait     time.Duration
	waitCount     int
	grantCount    int
	busyIntegral  time.Duration // integral of inUse over time, in unit·ns
	lastChange    time.Duration
	maxInUse      int
	maxQueueDepth int
}

type resWaiter struct {
	p       *Proc
	n       int
	since   time.Duration
	granted bool
}

// NewResource creates a resource with the given capacity on kernel k.
// Capacity must be positive.
func NewResource(k *Kernel, name string, capacity int) *Resource {
	if capacity <= 0 {
		panic(fmt.Sprintf("des: resource %q must have positive capacity", name))
	}
	return &Resource{k: k, name: name, capacity: capacity}
}

// Name returns the resource name.
func (r *Resource) Name() string { return r.name }

// Capacity returns the resource capacity in units.
func (r *Resource) Capacity() int { return r.capacity }

// InUse returns the number of units currently held.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen returns the number of processes currently waiting.
func (r *Resource) QueueLen() int { return len(r.waiters) }

// accumulate updates the busy-time integral before a change in inUse.
func (r *Resource) accumulate() {
	dt := r.k.now - r.lastChange
	if dt > 0 {
		r.busyIntegral += time.Duration(int64(dt) * int64(r.inUse))
	}
	r.lastChange = r.k.now
}

// Acquire obtains n units of the resource for process p, blocking p until the
// units are available.  Acquiring more units than the capacity panics.
func (r *Resource) Acquire(p *Proc, n int) {
	if n <= 0 {
		return
	}
	if n > r.capacity {
		panic(fmt.Sprintf("des: acquire %d units of %q exceeds capacity %d", n, r.name, r.capacity))
	}
	if len(r.waiters) == 0 && r.inUse+n <= r.capacity {
		r.accumulate()
		r.inUse += n
		if r.inUse > r.maxInUse {
			r.maxInUse = r.inUse
		}
		r.grantCount++
		return
	}
	w := &resWaiter{p: p, n: n, since: r.k.now}
	r.waiters = append(r.waiters, w)
	if len(r.waiters) > r.maxQueueDepth {
		r.maxQueueDepth = len(r.waiters)
	}
	r.waitCount++
	p.park()
	// When the process resumes, the grant has already been applied by Release.
	r.totalWait += r.k.now - w.since
}

// Release returns n units of the resource and grants as many queued requests
// as now fit, in FIFO order.
func (r *Resource) Release(p *Proc, n int) {
	if n <= 0 {
		return
	}
	if n > r.inUse {
		panic(fmt.Sprintf("des: release %d units of %q but only %d in use", n, r.name, r.inUse))
	}
	r.accumulate()
	r.inUse -= n
	r.grantWaiters()
}

// grantWaiters admits queued requests in FIFO order while they fit.
func (r *Resource) grantWaiters() {
	for len(r.waiters) > 0 {
		w := r.waiters[0]
		if r.inUse+w.n > r.capacity {
			return
		}
		r.waiters = r.waiters[1:]
		r.accumulate()
		r.inUse += w.n
		if r.inUse > r.maxInUse {
			r.maxInUse = r.inUse
		}
		r.grantCount++
		w.granted = true
		proc := w.p
		r.k.Schedule(0, func() { r.k.resumeProc(proc) })
	}
}

// Stats reports usage statistics for the resource.
type ResourceStats struct {
	Name          string
	Capacity      int
	Grants        int
	Waits         int
	TotalWait     time.Duration
	MaxInUse      int
	MaxQueueDepth int
	// Utilization is mean in-use units divided by capacity over the elapsed
	// virtual time (0 if no time has elapsed).
	Utilization float64
}

// Stats returns a snapshot of the resource's usage statistics as of the
// current virtual time.
func (r *Resource) Stats() ResourceStats {
	r.accumulate()
	elapsed := r.k.now
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

// String implements fmt.Stringer for convenient logging.
func (s ResourceStats) String() string {
	return fmt.Sprintf("%s: cap=%d grants=%d waits=%d totalWait=%s util=%.1f%%",
		s.Name, s.Capacity, s.Grants, s.Waits, s.TotalWait, s.Utilization*100)
}
