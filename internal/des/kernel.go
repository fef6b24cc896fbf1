// Package des implements a deterministic, process-oriented discrete-event
// simulation kernel.
//
// The kernel advances a virtual clock by executing events drawn from a
// time-ordered heap.  Simulation processes are ordinary Go functions running
// in their own goroutines, but the kernel enforces strict alternation: at any
// instant at most one process (or the kernel itself) is running, so processes
// may freely share data structures without additional synchronization as long
// as they only touch them from inside their process body.
//
// The package provides the building blocks used throughout this repository to
// model the Palomar-Quest loading environment: loader processes on cluster
// nodes, the database server's CPUs, its disks, its transaction-slot limit and
// its lock manager are all expressed as processes and resources on a single
// kernel, which makes every timed experiment deterministic and repeatable.
package des

import (
	"container/heap"
	"fmt"
	"math/rand"
	"time"
)

// event is a scheduled callback.
type event struct {
	at  time.Duration
	seq int64
	fn  func()
}

// eventHeap orders events by time, breaking ties by insertion sequence so the
// simulation is deterministic.
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}
func (h eventHeap) peek() *event { return h[0] }

// Kernel is a discrete-event simulation engine with a virtual clock.
// The zero value is not usable; create kernels with NewKernel.
type Kernel struct {
	now     time.Duration
	seq     int64
	events  eventHeap
	procSeq int
	rng     *rand.Rand
	running bool

	// parked receives a signal whenever the currently running process
	// yields control back to the kernel (by blocking or finishing).
	parked chan struct{}
}

// NewKernel returns a kernel whose random source is seeded with seed.
// The same seed always produces the same simulation trace.
func NewKernel(seed int64) *Kernel {
	return &Kernel{
		rng:    rand.New(rand.NewSource(seed)),
		parked: make(chan struct{}),
	}
}

// Now returns the current virtual time.
func (k *Kernel) Now() time.Duration { return k.now }

// Rand returns the kernel's deterministic random source.  It must only be
// used from process bodies or event callbacks (i.e. under the kernel's
// single-runner discipline).
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Schedule registers fn to run after delay d of virtual time.  A negative
// delay is treated as zero.
func (k *Kernel) Schedule(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	k.seq++
	heap.Push(&k.events, &event{at: k.now + d, seq: k.seq, fn: fn})
}

// Spawn creates a new process named name whose body is fn and schedules it to
// start at the current virtual time.  The returned Proc may be used by other
// processes to inspect its state after the run.
func (k *Kernel) Spawn(name string, fn func(*Proc)) *Proc {
	return k.SpawnAt(0, name, fn)
}

// SpawnAt creates a new process that starts after delay d of virtual time.
func (k *Kernel) SpawnAt(d time.Duration, name string, fn func(*Proc)) *Proc {
	k.procSeq++
	p := &Proc{
		k:      k,
		id:     k.procSeq,
		name:   name,
		resume: make(chan struct{}),
	}
	k.Schedule(d, func() { k.startProc(p, fn) })
	return p
}

// startProc launches the process goroutine and waits for it to yield.
func (k *Kernel) startProc(p *Proc, fn func(*Proc)) {
	p.startedAt = k.now
	go func() {
		defer func() {
			if r := recover(); r != nil {
				p.err = fmt.Errorf("process %q panicked: %v", p.name, r)
			}
			p.finished = true
			p.finishedAt = k.now
			k.parked <- struct{}{}
		}()
		fn(p)
	}()
	<-k.parked
}

// resumeProc hands control to a parked process and waits for it to yield.
func (k *Kernel) resumeProc(p *Proc) {
	if p.finished {
		return
	}
	p.resume <- struct{}{}
	<-k.parked
}

// Run executes events until the event heap is empty.  It returns the final
// virtual time.  Processes still blocked on resources when the heap drains are
// left parked; they can be inspected with Stuck.
func (k *Kernel) Run() time.Duration {
	return k.RunUntil(-1)
}

// RunUntil executes events until the heap is empty or the next event would be
// scheduled after limit (limit < 0 means no limit).  It returns the final
// virtual time.
func (k *Kernel) RunUntil(limit time.Duration) time.Duration {
	if k.running {
		panic("des: Run called reentrantly")
	}
	k.running = true
	defer func() { k.running = false }()
	for k.events.Len() > 0 {
		next := k.events.peek()
		if limit >= 0 && next.at > limit {
			break
		}
		e := heap.Pop(&k.events).(*event)
		if e.at > k.now {
			k.now = e.at
		}
		e.fn()
	}
	return k.now
}
