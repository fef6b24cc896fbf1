package main

import (
	"math"
	"sync"
	"time"
)

// The host probe.  On the shared 2-vCPU virtual machine the benchmark was
// sized on, the memory system's speed changes by up to 1.6x and stays
// changed for minutes: whole invocations load a third fewer rows per second
// than their neighbours, and CPU time per request moves with wall time, so
// no estimator inside one invocation can take it out.  A fixed piece of work
// that does nothing but miss the caches sees the same slow-down, while one
// that stays in the caches does not see it at all.
//
// So every load repetition is bracketed by two probes, and the run's load
// rate and load time are corrected by the run's median probe time over
// referenceProbeMs, raised to loadMemoryShare: the load path is only partly
// memory-bound.  Over ten invocations of each workload the spread (quartile
// range over median) of the load rate was, by exponent:
//
//	exponent        0     0.25   0.5    0.75   1
//	ingest-bulk     0.190 0.175  0.150  0.136  0.135
//	ingest-durable  0.122 0.089  0.075  0.067  0.071
//	serve-hot       0.106 0.095  0.061  0.050  0.045
//	serve-mixed     0.109 0.078  0.060  0.057  0.109
//	shard-scatter   0.084 0.069  0.060  0.100  0.146
//
// One half is the largest exponent that helps every workload.  The
// uncorrected numbers and the factor are reported beside the corrected ones.
// Latencies are not corrected: at the rates offered they are wake-ups, not
// memory, and do not move with the probe.

const (
	probeWords = 16 << 20 // 128 MB, far beyond the last-level cache
	probeSteps = 1_500_000
	// referenceProbeMs is the probe's usual time between load repetitions
	// on the sizing host, so that there the correction is usually near 1.
	referenceProbeMs = 72.0
	loadMemoryShare  = 0.5
)

var (
	probeArena []uint64 // pointer-free, so the collector never scans it
	probeOnce  sync.Once
	probeSink  uint64
)

// probeWalk does probeSteps dependent read-modify-writes at pseudo-random
// places of the arena.
func probeWalk() uint64 {
	x := uint64(88172645463325252)
	n := uint64(len(probeArena))
	var sum uint64
	for i := 0; i < probeSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x % n
		probeArena[j] += x
		sum += probeArena[(j+4097)%n]
	}
	return sum
}

// probe times one walk and adds it to the run's samples.
func (r *run) probe() {
	probeOnce.Do(func() {
		probeArena = make([]uint64, probeWords)
		probeSink += probeWalk() // untimed: the first walk pays the page faults
	})
	t0 := time.Now()
	probeSink += probeWalk()
	r.probes = append(r.probes, float64(time.Since(t0))/1e6)
}

// loadCorrection is the factor a load rate measured in this run is multiplied
// by (and a load time divided by) to read as on the reference host.
func (r *run) loadCorrection() float64 {
	if len(r.probes) == 0 {
		return 1
	}
	return math.Pow(summarize(r.probes).Value/referenceProbeMs, loadMemoryShare)
}
