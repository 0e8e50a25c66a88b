package vclock

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestZeroValueClock(t *testing.T) {
	var c Clock
	if got := c.Now(); got != 0 {
		t.Fatalf("zero clock Now() = %v, want 0", got)
	}
	if n := c.PendingTimers(); n != 0 {
		t.Fatalf("zero clock PendingTimers() = %d, want 0", n)
	}
	if _, ok := c.NextDeadline(); ok {
		t.Fatal("zero clock NextDeadline() reported a deadline")
	}
}

func TestAdvanceAccumulates(t *testing.T) {
	var c Clock
	c.Advance(3 * time.Second)
	c.Advance(250 * time.Millisecond)
	if got, want := c.Now(), 3250*time.Millisecond; got != want {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
}

func TestAdvanceNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) did not panic")
		}
	}()
	var c Clock
	c.Advance(-1)
}

func TestAdvanceTo(t *testing.T) {
	var c Clock
	c.AdvanceTo(5 * time.Second)
	if got := c.Now(); got != 5*time.Second {
		t.Fatalf("Now() = %v, want 5s", got)
	}
	// Past target is a no-op.
	c.AdvanceTo(time.Second)
	if got := c.Now(); got != 5*time.Second {
		t.Fatalf("AdvanceTo into past moved clock to %v", got)
	}
}

func TestAfterFuncFiresAtDeadline(t *testing.T) {
	var c Clock
	var firedAt time.Duration
	c.AfterFunc(10*time.Millisecond, func(now time.Duration) { firedAt = now })

	c.Advance(9 * time.Millisecond)
	if firedAt != 0 {
		t.Fatalf("timer fired early at %v", firedAt)
	}
	c.Advance(time.Millisecond)
	if firedAt != 10*time.Millisecond {
		t.Fatalf("timer fired at %v, want 10ms", firedAt)
	}
}

func TestAfterFuncZeroFiresOnNextAdvance(t *testing.T) {
	var c Clock
	fired := false
	c.AfterFunc(0, func(time.Duration) { fired = true })
	c.Advance(1)
	if !fired {
		t.Fatal("zero-delay timer did not fire on next Advance")
	}
}

func TestAfterFuncNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AfterFunc(nil) did not panic")
		}
	}()
	var c Clock
	c.AfterFunc(time.Second, nil)
}

func TestTimersFireInDeadlineOrder(t *testing.T) {
	var c Clock
	var order []int
	c.AfterFunc(30*time.Millisecond, func(time.Duration) { order = append(order, 3) })
	c.AfterFunc(10*time.Millisecond, func(time.Duration) { order = append(order, 1) })
	c.AfterFunc(20*time.Millisecond, func(time.Duration) { order = append(order, 2) })
	c.Advance(time.Second)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("firing order = %v, want [1 2 3]", order)
	}
}

func TestEqualDeadlinesFireFIFO(t *testing.T) {
	var c Clock
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		c.AfterFunc(time.Millisecond, func(time.Duration) { order = append(order, i) })
	}
	c.Advance(time.Millisecond)
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-deadline order = %v, want FIFO", order)
		}
	}
}

func TestStopPendingTimer(t *testing.T) {
	var c Clock
	fired := false
	timer := c.AfterFunc(time.Second, func(time.Duration) { fired = true })
	if !c.Stop(timer) {
		t.Fatal("Stop on pending timer returned false")
	}
	c.Advance(2 * time.Second)
	if fired {
		t.Fatal("stopped timer fired")
	}
	if c.Stop(timer) {
		t.Fatal("second Stop returned true")
	}
}

func TestStopFiredTimer(t *testing.T) {
	var c Clock
	timer := c.AfterFunc(time.Millisecond, func(time.Duration) {})
	c.Advance(time.Millisecond)
	if c.Stop(timer) {
		t.Fatal("Stop on fired timer returned true")
	}
}

func TestStopNil(t *testing.T) {
	var c Clock
	if c.Stop(nil) {
		t.Fatal("Stop(nil) returned true")
	}
}

func TestCallbackMaySchedule(t *testing.T) {
	var c Clock
	var chain []time.Duration
	var schedule func(now time.Duration)
	schedule = func(now time.Duration) {
		chain = append(chain, now)
		if len(chain) < 3 {
			c.AfterFunc(time.Millisecond, schedule)
		}
	}
	c.AfterFunc(time.Millisecond, schedule)
	for i := 0; i < 5; i++ {
		c.Advance(time.Millisecond)
	}
	if len(chain) != 3 {
		t.Fatalf("chained schedule fired %d times, want 3", len(chain))
	}
	for i, at := range chain {
		if want := time.Duration(i+1) * time.Millisecond; at != want {
			t.Fatalf("chain[%d] fired at %v, want %v", i, at, want)
		}
	}
}

func TestNextDeadline(t *testing.T) {
	var c Clock
	c.AfterFunc(7*time.Millisecond, func(time.Duration) {})
	c.AfterFunc(3*time.Millisecond, func(time.Duration) {})
	d, ok := c.NextDeadline()
	if !ok || d != 3*time.Millisecond {
		t.Fatalf("NextDeadline() = %v,%v want 3ms,true", d, ok)
	}
}

func TestConcurrentReaders(t *testing.T) {
	var c Clock
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last time.Duration
			for {
				select {
				case <-stop:
					return
				default:
					now := c.Now()
					if now < last {
						t.Errorf("Now() went back from %v to %v", last, now)
						return
					}
					last = now
					_ = c.PendingTimers()
				}
			}
		}()
	}
	for i := 0; i < 1000; i++ {
		c.Advance(time.Microsecond)
	}
	close(stop)
	wg.Wait()
	if got := c.Now(); got != 1000*time.Microsecond {
		t.Fatalf("Now() = %v, want 1ms", got)
	}
}

// Property: regardless of the insertion order of timers, they fire in
// nondecreasing deadline order and the heap drains completely.
func TestPropertyTimerOrdering(t *testing.T) {
	f := func(delaysMs []uint16) bool {
		if len(delaysMs) > 256 {
			delaysMs = delaysMs[:256]
		}
		var c Clock
		var fired []time.Duration
		for _, ms := range delaysMs {
			c.AfterFunc(time.Duration(ms)*time.Millisecond, func(now time.Duration) {
				fired = append(fired, now)
			})
		}
		c.Advance(time.Duration(1<<16) * time.Millisecond)
		if len(fired) != len(delaysMs) {
			return false
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			return false
		}
		want := c.sortedDeadlines()
		return len(want) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaving Stop with Advance never fires a stopped timer and
// always fires every unstopped timer whose deadline passed.
func TestPropertyStopConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		var c Clock
		type rec struct {
			timer   *Timer
			stopped bool
			fired   *bool
		}
		var recs []rec
		for i := 0; i < 50; i++ {
			fired := new(bool)
			timer := c.AfterFunc(time.Duration(rng.Intn(100))*time.Millisecond, func(time.Duration) { *fired = true })
			recs = append(recs, rec{timer: timer, fired: fired})
		}
		for i := range recs {
			if rng.Intn(2) == 0 {
				recs[i].stopped = c.Stop(recs[i].timer)
			}
		}
		c.Advance(time.Second)
		for i, r := range recs {
			if r.stopped && *r.fired {
				t.Fatalf("trial %d: stopped timer %d fired", trial, i)
			}
			if !r.stopped && !*r.fired {
				t.Fatalf("trial %d: unstopped timer %d never fired", trial, i)
			}
		}
	}
}

func BenchmarkAdvanceWithTimers(b *testing.B) {
	var c Clock
	for i := 0; i < 64; i++ {
		var rearm func(time.Duration)
		period := time.Duration(i+1) * time.Millisecond
		rearm = func(time.Duration) { c.AfterFunc(period, rearm) }
		c.AfterFunc(period, rearm)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Advance(time.Millisecond)
	}
}

// TestResetMatchesStopAndAfterFunc checks Reset against its specification:
// under a seeded script of schedules, re-arms and advances, re-arming with
// Reset fires exactly the callbacks, at exactly the times and in exactly the
// order, that Stop followed by AfterFunc does.
func TestResetMatchesStopAndAfterFunc(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		got, want := resetTrace(seed, true), resetTrace(seed, false)
		if len(want) == 0 || !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: Reset fired %v, Stop+AfterFunc fired %v", seed, got, want)
		}
	}
}

// resetTrace drives a clock through a seeded script and returns its firing
// log; useReset selects how a scheduled timer is re-armed.
func resetTrace(seed int64, useReset bool) []string {
	rng := rand.New(rand.NewSource(seed))
	var c Clock
	var log []string
	timers := make([]*Timer, 6)
	for step := 0; step < 300; step++ {
		i := rng.Intn(len(timers))
		d := time.Duration(rng.Intn(4)) * time.Millisecond
		fire := func(now time.Duration) { log = append(log, fmt.Sprintf("%d@%v", i, now)) }
		switch {
		case timers[i] == nil:
			timers[i] = c.AfterFunc(d, fire)
		case rng.Intn(3) == 0:
			c.Advance(d)
		case useReset:
			timers[i] = c.Reset(timers[i], d)
		default:
			c.Stop(timers[i])
			timers[i] = c.AfterFunc(d, fire)
		}
	}
	c.Advance(time.Second)
	return log
}

// TestResetReusesPendingTimer pins the allocation-free re-arm of a pending
// timer and the fresh handle for a fired one.
func TestResetReusesPendingTimer(t *testing.T) {
	var c Clock
	fired := 0
	tm := c.AfterFunc(time.Millisecond, func(time.Duration) { fired++ })
	if got := c.Reset(tm, 2*time.Millisecond); got != tm || c.PendingTimers() != 1 {
		t.Fatalf("Reset of a pending timer: same handle %v, %d pending", got == tm, c.PendingTimers())
	}
	c.Advance(time.Millisecond)
	if fired != 0 {
		t.Fatal("reset timer fired at its old deadline")
	}
	c.Advance(time.Millisecond)
	if fired != 1 {
		t.Fatalf("reset timer fired %d times at its new deadline, want 1", fired)
	}
	again := c.Reset(tm, time.Millisecond)
	if again == tm {
		t.Fatal("Reset reused a timer that had already fired")
	}
	c.Advance(time.Millisecond)
	if fired != 2 {
		t.Fatalf("fired %d times after re-arming a fired timer, want 2", fired)
	}
	if allocs := testing.AllocsPerRun(100, func() { again = c.Reset(again, time.Hour) }); allocs != 0 {
		t.Fatalf("re-arming a pending timer allocates %.1f times, want 0", allocs)
	}
}
