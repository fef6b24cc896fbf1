// Package trace is the structured per-request tracing layer of the serving
// stack: each traced request carries a stack-allocated Req through the
// serving path, the path marks stage boundaries (admission wait, cache
// probe, execute, encode), and the finished trace is published into a fixed
// ring buffer that /debug/traces dumps and reports sample from.
//
// The design goals, in order:
//
//  1. Zero cost when off: a nil *Req no-ops every method, so untraced
//     requests (the common case under sampling) pay one nil check per stage.
//  2. Zero allocation when on: Req is a fixed-size value the transport keeps
//     on the request goroutine's stack; publishing copies it into a
//     pre-allocated ring slot.
//  3. Attribution, not sampling theater: stages are measured as contiguous
//     boundary-to-boundary spans on one clock, so the sum of the stage
//     durations accounts for the request's full wall time by construction —
//     a tail-latency outlier names the stage that caused it.
//
// Ownership (see PERFORMANCE.md, "Trace ring ownership"): the request
// goroutine owns its Req until Publish; the ring owns slots, guarded by one
// mutex taken only by (sampled) publishers and dumpers, never by untraced
// requests.
package trace

import (
	"sync"
	"sync/atomic"
	"time"
)

// Stage labels one contiguous span of a request's life.  Stages are ordered:
// a request passes through them once, in order, skipping those that do not
// apply (a cache hit has no execute span; a shed request only an admission
// span).
type Stage uint8

const (
	// StageAdmission is the wait for a worker-pool slot (queue wait).
	StageAdmission Stage = iota
	// StageCache is the result-cache probe, including the hit's simulated
	// service cost.
	StageCache
	// StageExecute is query execution against the engine, including the
	// cost-model sleep on paced runs.
	StageExecute
	// StageEncode is response encoding and the socket write.
	StageEncode
	// StageScatter is the cross-node fan-out of a sharded query: from
	// dispatch until the last shard's partial result arrives.
	StageScatter
	// StageGather is the coordinator-side merge of per-shard partial
	// results into the final answer.
	StageGather
	// NumStages is the number of stages (array size, not a stage).
	NumStages = 6
)

// String names the stage for dumps and reports.
func (s Stage) String() string {
	switch s {
	case StageAdmission:
		return "admission"
	case StageCache:
		return "cache"
	case StageExecute:
		return "execute"
	case StageEncode:
		return "encode"
	case StageScatter:
		return "scatter"
	case StageGather:
		return "gather"
	}
	return "unknown"
}

// Req is one request's in-flight trace.  The transport allocates it on the
// request's stack, Begin stamps the start, the serving path calls Mark at
// each stage boundary, Finish stamps the outcome, and Publish copies it into
// the ring.  All methods are nil-receiver safe.
type Req struct {
	// ID is the request id (the transport's monotonically increasing
	// counter; also echoed to the client for cross-correlation).
	ID uint64
	// Class is the query class label.
	Class string
	// Outcome is the terminal outcome label ("served", "cache_hit", "shed",
	// "expired", "error").
	Outcome string
	// Start is the scheduler-clock time at which handling began; End the
	// time Finish was called.  Stages[s] holds the wall time attributed to
	// stage s; the sum of Stages equals End-Start up to the (unattributed)
	// instants between Finish and the last Mark.
	Start, End time.Duration
	Stages     [NumStages]time.Duration

	// mark is the running boundary: Mark(stage, now) attributes now-mark to
	// stage and advances it.
	mark time.Duration
}

// Begin stamps the request start.
func (r *Req) Begin(id uint64, class string, now time.Duration) {
	if r == nil {
		return
	}
	r.ID = id
	r.Class = class
	r.Start = now
	r.mark = now
}

// Mark attributes the wall time since the previous boundary to stage.
// Stages may be marked repeatedly (the re-probe after admission, say);
// durations accumulate.
func (r *Req) Mark(stage Stage, now time.Duration) {
	if r == nil {
		return
	}
	if d := now - r.mark; d > 0 {
		r.Stages[stage] += d
	}
	r.mark = now
}

// Finish stamps the outcome.  Any wall time since the last boundary is
// attributed to the given stage, so Finish never leaves a gap between the
// last Mark and End.
func (r *Req) Finish(outcome string, last Stage, now time.Duration) {
	if r == nil {
		return
	}
	r.Mark(last, now)
	r.Outcome = outcome
	r.End = now
}

// Total returns the request's measured wall time.
func (r *Req) Total() time.Duration {
	if r == nil {
		return 0
	}
	return r.End - r.Start
}

// Tracer owns the ring buffer and the sampling decision.
type Tracer struct {
	every uint64
	seq   atomic.Uint64

	mu        sync.Mutex
	ring      []Req
	next      int
	published uint64
}

// NewTracer creates a tracer keeping the last ringSize published traces and
// sampling one request in every `every` (1 traces everything; 0 is treated
// as 1).
func NewTracer(ringSize, every int) *Tracer {
	if ringSize <= 0 {
		ringSize = 256
	}
	if every <= 0 {
		every = 1
	}
	return &Tracer{every: uint64(every), ring: make([]Req, 0, ringSize)}
}

// Sample decides whether the next request should be traced.  It is one
// atomic increment; untraced requests touch nothing else in the tracer.
func (t *Tracer) Sample() bool {
	if t == nil {
		return false
	}
	return t.seq.Add(1)%t.every == 0
}

// Publish copies a finished trace into the ring, overwriting the oldest
// entry once full.
func (t *Tracer) Publish(r *Req) {
	if t == nil || r == nil {
		return
	}
	t.mu.Lock()
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, *r)
	} else {
		t.ring[t.next] = *r
		t.next = (t.next + 1) % len(t.ring)
	}
	t.published++
	t.mu.Unlock()
}

// Published returns the number of traces published since creation.
func (t *Tracer) Published() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.published
}

// Snapshot returns the ring contents in publish order, oldest first.
func (t *Tracer) Snapshot() []Req {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Req, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

// Slowest returns the n largest-total traces in the ring, slowest first —
// the tail-latency sample reports print.
func (t *Tracer) Slowest(n int) []Req {
	snap := t.Snapshot()
	// Partial selection sort: rings are small (hundreds), n smaller.
	if n > len(snap) {
		n = len(snap)
	}
	for i := 0; i < n; i++ {
		maxAt := i
		for j := i + 1; j < len(snap); j++ {
			if snap[j].Total() > snap[maxAt].Total() {
				maxAt = j
			}
		}
		snap[i], snap[maxAt] = snap[maxAt], snap[i]
	}
	return snap[:n]
}
