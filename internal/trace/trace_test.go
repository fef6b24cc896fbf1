package trace

import (
	"sync"
	"testing"
	"time"
)

func TestReqAttributionIsComplete(t *testing.T) {
	var r Req
	r.Begin(7, "cone", 100*time.Microsecond)
	r.Mark(StageAdmission, 180*time.Microsecond)
	r.Mark(StageCache, 200*time.Microsecond)
	r.Mark(StageExecute, 900*time.Microsecond)
	r.Finish("served", StageEncode, 950*time.Microsecond)
	if r.Total() != 850*time.Microsecond {
		t.Fatalf("Total = %v", r.Total())
	}
	// Begin/Mark*/Finish on one clock leave no gap: the stages sum to the
	// request's wall time.
	var attributed time.Duration
	for _, d := range r.Stages {
		attributed += d
	}
	if attributed != r.Total() {
		t.Fatalf("stages sum to %v, Total %v", attributed, r.Total())
	}
	want := [NumStages]time.Duration{
		StageAdmission: 80 * time.Microsecond,
		StageCache:     20 * time.Microsecond,
		StageExecute:   700 * time.Microsecond,
		StageEncode:    50 * time.Microsecond,
	}
	if r.Stages != want {
		t.Fatalf("Stages = %v, want %v", r.Stages, want)
	}
	if r.Outcome != "served" || r.ID != 7 || r.Class != "cone" {
		t.Fatalf("metadata lost: %+v", r)
	}
}

func TestNilReqAndTracerAreNoops(t *testing.T) {
	var r *Req
	r.Begin(1, "x", 0)
	r.Mark(StageCache, time.Second)
	r.Finish("served", StageEncode, time.Second)
	if r.Total() != 0 {
		t.Fatal("nil Req reported time")
	}
	var tr *Tracer
	if tr.Sample() {
		t.Fatal("nil tracer sampled")
	}
	tr.Publish(&Req{})
	if tr.Snapshot() != nil || tr.Published() != 0 {
		t.Fatal("nil tracer retained state")
	}
}

func TestTracerSampling(t *testing.T) {
	tr := NewTracer(16, 4)
	hits := 0
	for i := 0; i < 400; i++ {
		if tr.Sample() {
			hits++
		}
	}
	if hits != 100 {
		t.Fatalf("sampled %d of 400 with every=4", hits)
	}
}

func TestRingOverwriteAndSlowest(t *testing.T) {
	tr := NewTracer(8, 1)
	for i := 1; i <= 20; i++ {
		var r Req
		r.Begin(uint64(i), "lookup", 0)
		r.Finish("served", StageExecute, time.Duration(i)*time.Millisecond)
		tr.Publish(&r)
	}
	snap := tr.Snapshot()
	if len(snap) != 8 {
		t.Fatalf("ring holds %d, want 8", len(snap))
	}
	if snap[0].ID != 13 || snap[7].ID != 20 {
		t.Fatalf("ring order wrong: first=%d last=%d", snap[0].ID, snap[7].ID)
	}
	if got := tr.Published(); got != 20 {
		t.Fatalf("Published = %d", got)
	}
	slow := tr.Slowest(3)
	if len(slow) != 3 || slow[0].ID != 20 || slow[1].ID != 19 || slow[2].ID != 18 {
		t.Fatalf("Slowest = %v", slow)
	}
}

func TestTracerConcurrentPublish(t *testing.T) {
	tr := NewTracer(64, 1)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				var r Req
				r.Begin(uint64(g*1000+i), "cone", 0)
				r.Finish("served", StageExecute, time.Millisecond)
				tr.Publish(&r)
				_ = tr.Snapshot()
			}
		}(g)
	}
	wg.Wait()
	if tr.Published() != 4000 {
		t.Fatalf("Published = %d, want 4000", tr.Published())
	}
}
