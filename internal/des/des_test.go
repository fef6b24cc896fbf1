package des

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	k := NewKernel(1)
	var order []int
	k.Schedule(30*time.Millisecond, func() { order = append(order, 3) })
	k.Schedule(10*time.Millisecond, func() { order = append(order, 1) })
	k.Schedule(20*time.Millisecond, func() { order = append(order, 2) })
	k.Schedule(10*time.Millisecond, func() { order = append(order, 11) }) // same time, later seq
	end := k.Run()
	if end != 30*time.Millisecond {
		t.Fatalf("final time = %v, want 30ms", end)
	}
	want := []int{1, 11, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestNegativeDelayTreatedAsZero(t *testing.T) {
	k := NewKernel(1)
	ran := false
	k.Schedule(-time.Second, func() { ran = true })
	if k.Run() != 0 {
		t.Fatalf("negative delay should not advance the clock")
	}
	if !ran {
		t.Fatal("callback did not run")
	}
}

func TestProcHoldAdvancesTime(t *testing.T) {
	k := NewKernel(1)
	var observed []time.Duration
	p := k.Spawn("worker", func(p *Proc) {
		observed = append(observed, p.Now())
		p.Hold(5 * time.Second)
		observed = append(observed, p.Now())
		p.Hold(2 * time.Second)
		observed = append(observed, p.Now())
	})
	k.Run()
	if !p.finished {
		t.Fatal("process did not finish")
	}
	want := []time.Duration{0, 5 * time.Second, 7 * time.Second}
	for i, w := range want {
		if observed[i] != w {
			t.Fatalf("observed[%d] = %v, want %v", i, observed[i], w)
		}
	}
	if p.FinishedAt() != 7*time.Second {
		t.Fatalf("FinishedAt = %v, want 7s", p.FinishedAt())
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		k := NewKernel(42)
		var trace []string
		for _, spec := range []struct {
			name string
			hold time.Duration
		}{{"a", 3 * time.Second}, {"b", 1 * time.Second}, {"c", 2 * time.Second}} {
			spec := spec
			k.Spawn(spec.name, func(p *Proc) {
				p.Hold(spec.hold)
				trace = append(trace, spec.name)
				p.Hold(spec.hold)
				trace = append(trace, spec.name)
			})
		}
		k.Run()
		return trace
	}
	first := run()
	second := run()
	want := []string{"b", "c", "b", "a", "c", "a"}
	for i := range want {
		if first[i] != want[i] {
			t.Fatalf("trace = %v, want %v", first, want)
		}
		if second[i] != first[i] {
			t.Fatalf("runs differ: %v vs %v", first, second)
		}
	}
}

func TestResourceCapacityAndFIFO(t *testing.T) {
	k := NewKernel(1)
	res := NewResource(k, "cpu", 2)
	var doneAt = map[string]time.Duration{}
	for _, name := range []string{"p1", "p2", "p3", "p4"} {
		name := name
		k.Spawn(name, func(p *Proc) {
			res.Acquire(p, 1)
			p.Hold(10 * time.Second)
			res.Release(p, 1)
			doneAt[name] = p.Now()
		})
	}
	k.Run()
	// Two at a time: p1,p2 finish at 10s; p3,p4 at 20s.
	if doneAt["p1"] != 10*time.Second || doneAt["p2"] != 10*time.Second {
		t.Fatalf("first pair finished at %v/%v, want 10s", doneAt["p1"], doneAt["p2"])
	}
	if doneAt["p3"] != 20*time.Second || doneAt["p4"] != 20*time.Second {
		t.Fatalf("second pair finished at %v/%v, want 20s", doneAt["p3"], doneAt["p4"])
	}
	st := res.Stats()
	if st.Grants != 4 {
		t.Fatalf("grants = %d, want 4", st.Grants)
	}
	if st.Waits != 2 {
		t.Fatalf("waits = %d, want 2", st.Waits)
	}
	if st.TotalWait != 20*time.Second {
		t.Fatalf("total wait = %v, want 20s", st.TotalWait)
	}
	if st.Utilization < 0.99 || st.Utilization > 1.01 {
		t.Fatalf("utilization = %v, want ~1.0", st.Utilization)
	}
}

func TestResourceMultiUnitAcquire(t *testing.T) {
	k := NewKernel(1)
	res := NewResource(k, "slots", 3)
	var bigStarted time.Duration
	k.Spawn("small", func(p *Proc) {
		res.Acquire(p, 2)
		p.Hold(5 * time.Second)
		res.Release(p, 2)
	})
	k.Spawn("big", func(p *Proc) {
		res.Acquire(p, 3)
		bigStarted = p.Now()
		p.Hold(time.Second)
		res.Release(p, 3)
	})
	k.Run()
	if bigStarted != 5*time.Second {
		t.Fatalf("big acquired at %v, want 5s (after small released)", bigStarted)
	}
}

func TestResourceUse(t *testing.T) {
	k := NewKernel(1)
	res := NewResource(k, "disk", 1)
	var done time.Duration
	use := func(p *Proc) {
		res.Acquire(p, 1)
		p.Hold(3 * time.Second)
		res.Release(p, 1)
	}
	k.Spawn("a", use)
	k.Spawn("b", func(p *Proc) {
		use(p)
		done = p.Now()
	})
	k.Run()
	if done != 6*time.Second {
		t.Fatalf("serialized use finished at %v, want 6s", done)
	}
}

// runPanics runs k and returns the panic Run re-raised, failing t if it
// returned normally.
func runPanics(t *testing.T, k *Kernel) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Run returned normally; want it to re-raise the process panic")
		}
		msg = fmt.Sprint(r)
	}()
	k.Run()
	return ""
}

func TestAcquireMoreThanCapacityPanics(t *testing.T) {
	k := NewKernel(1)
	res := NewResource(k, "r", 1)
	p := k.Spawn("p", func(p *Proc) { res.Acquire(p, 2) })
	msg := runPanics(t, k)
	if !strings.Contains(msg, `des: process "p" panicked: `) || !strings.Contains(msg, "capacity") {
		t.Fatalf("panic message %q does not name the process and the over-acquire", msg)
	}
	if !p.finished {
		t.Fatal("panicked process should be marked finished")
	}
}

func TestSignalWaitAndFire(t *testing.T) {
	k := NewKernel(1)
	sig := NewSignal(k)
	var got any
	var when time.Duration
	k.Spawn("waiter", func(p *Proc) {
		got = sig.Wait(p)
		when = p.Now()
	})
	k.Spawn("firer", func(p *Proc) {
		p.Hold(4 * time.Second)
		sig.Fire("done")
	})
	k.Run()
	if got != "done" || when != 4*time.Second {
		t.Fatalf("got %v at %v, want done at 4s", got, when)
	}
	// Waiting after the signal fired returns immediately.
	k2 := NewKernel(1)
	sig2 := NewSignal(k2)
	sig2.Fire(7)
	var v any
	k2.Spawn("late", func(p *Proc) { v = sig2.Wait(p) })
	k2.Run()
	if v != 7 {
		t.Fatalf("late waiter got %v, want 7", v)
	}
}

func TestRunUntilLimit(t *testing.T) {
	k := NewKernel(1)
	var fired []int
	k.Schedule(time.Second, func() { fired = append(fired, 1) })
	k.Schedule(10*time.Second, func() { fired = append(fired, 2) })
	k.RunUntil(5 * time.Second)
	if len(fired) != 1 {
		t.Fatalf("fired = %v, want only the first event", fired)
	}
	k.Run()
	if len(fired) != 2 {
		t.Fatalf("fired = %v, want both events after Run", fired)
	}
}

func TestSpawnAt(t *testing.T) {
	k := NewKernel(1)
	var started time.Duration
	k.SpawnAt(3*time.Second, "late", func(p *Proc) { started = p.Now() })
	k.Run()
	if started != 3*time.Second {
		t.Fatalf("started at %v, want 3s", started)
	}
}

// TestProcPanicIsCaptured: a panic after the process has parked once reaches
// Run's caller, with the process's name, the value and the panic's stack.
func TestProcPanicIsCaptured(t *testing.T) {
	k := NewKernel(1)
	p := k.Spawn("bad", func(p *Proc) {
		p.Hold(time.Second)
		panic("boom")
	})
	msg := runPanics(t, k)
	if !strings.HasPrefix(msg, `des: process "bad" panicked: boom`) {
		t.Fatalf("panic message %q", msg)
	}
	if !strings.Contains(msg, "TestProcPanicIsCaptured") {
		t.Fatalf("panic message carries no stack of the process body:\n%s", msg)
	}
	if p.FinishedAt() != time.Second {
		t.Fatalf("finished at %v, want 1s", p.FinishedAt())
	}
	if !p.finished {
		t.Fatal("panicked process should be marked finished")
	}
}

func TestDeterministicRand(t *testing.T) {
	a := NewKernel(99).Rand().Int63()
	b := NewKernel(99).Rand().Int63()
	if a != b {
		t.Fatalf("same seed produced different values: %d vs %d", a, b)
	}
}

// TestHoldSumsProperty checks that for arbitrary non-negative hold sequences a
// process finishes at exactly the sum of its holds.
func TestHoldSumsProperty(t *testing.T) {
	f := func(holdsMS []uint16) bool {
		if len(holdsMS) > 50 {
			holdsMS = holdsMS[:50]
		}
		k := NewKernel(7)
		var want time.Duration
		p := k.Spawn("p", func(p *Proc) {
			for _, h := range holdsMS {
				d := time.Duration(h) * time.Millisecond
				p.Hold(d)
			}
		})
		for _, h := range holdsMS {
			want += time.Duration(h) * time.Millisecond
		}
		k.Run()
		return p.FinishedAt() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestResourceNeverExceedsCapacityProperty drives random workloads through a
// resource and checks the max-in-use statistic never exceeds capacity.
func TestResourceNeverExceedsCapacityProperty(t *testing.T) {
	f := func(seed int64, workers uint8) bool {
		n := int(workers%10) + 2
		k := NewKernel(seed)
		res := NewResource(k, "r", 3)
		for i := 0; i < n; i++ {
			k.Spawn("w", func(p *Proc) {
				units := 1 + int(k.Rand().Intn(3))
				res.Acquire(p, units)
				p.Hold(time.Duration(1+k.Rand().Intn(5)) * time.Second)
				res.Release(p, units)
			})
		}
		k.Run()
		return res.Stats().MaxInUse <= 3 && res.InUse() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
