package des

import (
	"time"
)

// Proc is a simulation process.  A Proc is created by Kernel.Spawn and its
// body runs in its own goroutine, but the kernel guarantees that only one
// process runs at a time, so process bodies may manipulate shared simulation
// state without locks.
//
// All Proc methods must be called from within the process body itself.
type Proc struct {
	k    *Kernel
	name string

	resume chan struct{}

	finished   bool
	finishedAt time.Duration
}

// Name returns the process name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.k.now }

// Finished reports whether the process body has returned.
func (p *Proc) Finished() bool { return p.finished }

// FinishedAt returns the virtual time at which the process body returned.
// It is meaningful only once Finished reports true.
func (p *Proc) FinishedAt() time.Duration { return p.finishedAt }

// park yields control to the kernel and blocks until the kernel resumes this
// process.
func (p *Proc) park() {
	p.k.parked <- struct{}{}
	<-p.resume
}

// Hold advances this process's virtual time by d: the process sleeps for d
// while other processes and events run.  Negative durations are treated as
// zero; a zero duration still yields to events scheduled at the same instant.
func (p *Proc) Hold(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.k.Schedule(d, func() { p.k.resumeProc(p) })
	p.park()
}

// Signal is a simple one-shot wait/notify primitive between processes on the
// same kernel.
type Signal struct {
	k       *Kernel
	fired   bool
	waiters []*Proc
	payload any
}

// NewSignal creates a signal bound to kernel k.
func NewSignal(k *Kernel) *Signal { return &Signal{k: k} }

// Wait blocks the calling process until the signal fires.  If the signal has
// already fired, Wait returns immediately.  It returns the payload passed to
// Fire.
func (s *Signal) Wait(p *Proc) any {
	if s.fired {
		return s.payload
	}
	s.waiters = append(s.waiters, p)
	p.park()
	return s.payload
}

// Fire marks the signal as fired with the given payload and wakes all waiting
// processes at the current virtual time.  Firing an already-fired signal is a
// no-op.
func (s *Signal) Fire(payload any) {
	if s.fired {
		return
	}
	s.fired = true
	s.payload = payload
	for _, w := range s.waiters {
		w := w
		s.k.Schedule(0, func() { s.k.resumeProc(w) })
	}
	s.waiters = nil
}
