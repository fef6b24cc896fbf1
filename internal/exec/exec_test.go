package exec

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"skyloader/internal/des"
)

// TestDESAdapterDeterminism pins that driving the kernel through the
// abstraction reproduces the same virtual trace run after run.
func TestDESAdapterDeterminism(t *testing.T) {
	trace := func() string {
		k := des.NewKernel(42)
		s := NewDES(k)
		if !s.Deterministic() {
			t.Fatal("DES scheduler must report Deterministic")
		}
		res := s.NewResource("slots", 2)
		out := ""
		for i := 0; i < 4; i++ {
			i := i
			s.Spawn(fmt.Sprintf("w%d", i), func(w Worker) {
				res.Acquire(w, 1)
				w.Sleep(time.Duration(i+1) * time.Millisecond)
				out += fmt.Sprintf("%s@%s;", w.Name(), w.Now())
				res.Release(w, 1)
			})
		}
		end := s.Run()
		return fmt.Sprintf("%s end=%s", out, end)
	}
	a, b := trace(), trace()
	if a != b {
		t.Fatalf("non-deterministic DES trace:\n%s\n%s", a, b)
	}
	if a == " end=0s" {
		t.Fatalf("trace is empty: %q", a)
	}
}

func TestKernelOfAndProcOf(t *testing.T) {
	k := des.NewKernel(1)
	s := NewDES(k)
	if KernelOf(s) != k {
		t.Fatal("KernelOf should return the wrapped kernel")
	}
	s.Spawn("w", func(w Worker) {
		if ProcOf(w) == nil {
			t.Error("ProcOf should return the wrapped proc")
		}
	})
	s.Run()

	rt := NewRealtime(RealtimeConfig{})
	if KernelOf(rt) != nil {
		t.Fatal("KernelOf on realtime scheduler should be nil")
	}
	rt.Spawn("w", func(w Worker) {
		if ProcOf(w) != nil {
			t.Error("ProcOf on realtime worker should be nil")
		}
	})
	rt.Run()
}

// TestRealtimeResourceCapacity hammers a realtime resource from many
// goroutines and checks the capacity invariant is never violated.
func TestRealtimeResourceCapacity(t *testing.T) {
	rt := NewRealtime(RealtimeConfig{Seed: 7})
	const capacity = 3
	res := rt.NewResource("slots", capacity)
	var cur, max, violations atomic.Int64
	for i := 0; i < 16; i++ {
		rt.Spawn(fmt.Sprintf("w%d", i), func(w Worker) {
			for j := 0; j < 50; j++ {
				res.Acquire(w, 1)
				n := cur.Add(1)
				if n > capacity {
					violations.Add(1)
				}
				for {
					m := max.Load()
					if n <= m || max.CompareAndSwap(m, n) {
						break
					}
				}
				cur.Add(-1)
				res.Release(w, 1)
			}
		})
	}
	rt.Run()
	if v := violations.Load(); v > 0 {
		t.Fatalf("capacity exceeded %d times", v)
	}
	st := res.Stats()
	if st.Grants != 16*50 {
		t.Fatalf("grants = %d, want %d", st.Grants, 16*50)
	}
	if st.MaxInUse > capacity {
		t.Fatalf("MaxInUse = %d exceeds capacity %d", st.MaxInUse, capacity)
	}
}

// TestRealtimeResourceFIFO checks that a queued large request is not starved
// by later small ones (strict FIFO admission, matching des.Resource).
func TestRealtimeResourceFIFO(t *testing.T) {
	rt := NewRealtime(RealtimeConfig{})
	res := rt.NewResource("slots", 2)
	w0 := make(chan struct{})
	holderIn := make(chan struct{})
	release := make(chan struct{})
	var bigGranted atomic.Bool

	rt.Spawn("holder", func(w Worker) {
		res.Acquire(w, 2)
		close(holderIn)
		<-release
		res.Release(w, 2)
	})
	rt.Spawn("big", func(w Worker) {
		<-holderIn
		close(w0)
		res.Acquire(w, 2) // queues behind holder
		bigGranted.Store(true)
		res.Release(w, 2)
	})
	rt.Spawn("small", func(w Worker) {
		<-w0
		// Give "big" a moment to enqueue first.
		for res.QueueLen() == 0 {
			time.Sleep(time.Millisecond)
		}
		res.Acquire(w, 1) // must wait behind "big" even though 0 in use later
		if !bigGranted.Load() {
			t.Error("small request admitted before queued big request (FIFO violated)")
		}
		res.Release(w, 1)
	})
	go func() {
		// Let big and small both enqueue, then free the units.
		for res.QueueLen() < 2 {
			time.Sleep(time.Millisecond)
		}
		close(release)
	}()
	rt.Run()
}

// TestRealtimeRunJoins verifies Run waits for workers spawned by workers.
func TestRealtimeRunJoins(t *testing.T) {
	rt := NewRealtime(RealtimeConfig{})
	var done atomic.Int64
	rt.Spawn("parent", func(w Worker) {
		for i := 0; i < 4; i++ {
			rt.Spawn("child", func(w Worker) { done.Add(1) })
		}
		done.Add(1)
	})
	rt.Run()
	if done.Load() != 5 {
		t.Fatalf("Run returned before all workers finished: %d/5", done.Load())
	}
}

// TestRealtimeRandConcurrent draws from the shared source concurrently; the
// race detector guards the locking discipline.
func TestRealtimeRandConcurrent(t *testing.T) {
	rt := NewRealtime(RealtimeConfig{Seed: 3})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				f := rt.RandFloat64()
				if f < 0 || f >= 1 {
					t.Errorf("RandFloat64 out of range: %v", f)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestRealtimeTimeScale verifies Sleep is a no-op at scale 0 and real at 1.
func TestRealtimeTimeScale(t *testing.T) {
	rt := NewRealtime(RealtimeConfig{})
	start := time.Now()
	rt.Spawn("w", func(w Worker) { w.Sleep(10 * time.Second) })
	rt.Run()
	if el := time.Since(start); el > time.Second {
		t.Fatalf("Sleep with TimeScale 0 actually slept (%s)", el)
	}

	rt2 := NewRealtime(RealtimeConfig{TimeScale: 1})
	start = time.Now()
	rt2.Spawn("w", func(w Worker) { w.Sleep(20 * time.Millisecond) })
	rt2.Run()
	if el := time.Since(start); el < 20*time.Millisecond {
		t.Fatalf("Sleep with TimeScale 1 returned too early (%s)", el)
	}
}

// TestFanoutBothEngines: on either engine Fanout runs every branch on a
// worker carrying its name, overlaps them (three 10 ms sleeps cost 10 ms of
// virtual time, not 30), blocks the caller until the slowest has returned,
// and runs a lone branch on the caller's own worker.
func TestFanoutBothEngines(t *testing.T) {
	for name, s := range map[string]Scheduler{
		"des":      NewDES(des.NewKernel(1)),
		"realtime": NewRealtime(RealtimeConfig{}),
	} {
		t.Run(name, func(t *testing.T) {
			names := []string{"b0", "b1", "b2"}
			var (
				ran      [3]atomic.Int32
				joinedAt time.Duration
				alone    string
			)
			s.Spawn("caller", func(w Worker) {
				start := w.Now()
				Fanout(s, w, names, func(fw Worker, i int) {
					if fw.Name() != names[i] {
						t.Errorf("branch %d runs on worker %q", i, fw.Name())
					}
					fw.Sleep(10 * time.Millisecond)
					ran[i].Add(1)
				})
				for i := range ran {
					if ran[i].Load() != 1 {
						t.Errorf("branch %d ran %d times before the join returned", i, ran[i].Load())
					}
				}
				joinedAt = w.Now() - start
				Fanout(s, w, names[:1], func(fw Worker, _ int) { alone = fw.Name() })
				Fanout(s, w, nil, func(Worker, int) { t.Error("branch of an empty fan-out ran") })
			})
			s.Run()
			if alone != "caller" {
				t.Errorf("single branch ran on %q, want the caller's worker", alone)
			}
			if s.Deterministic() && joinedAt != 10*time.Millisecond {
				t.Errorf("join took %s of virtual time, want 10ms", joinedAt)
			}
		})
	}
}
