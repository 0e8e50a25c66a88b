// Package vclock provides the deterministic virtual time base used by the
// entire simulation.
//
// Every component of the reproduction — the HAV substrate, the miniOS guest
// kernel, HyperTap's event multiplexer, and the experiment harnesses —
// measures time against a vclock.Clock rather than the wall clock. This makes
// experiments reproducible from a seed: detection latencies, polling
// intervals, and scheduling timeslices are all exact functions of the
// simulated workload, not of host scheduling jitter.
//
// Time is modeled in nanoseconds carried by time.Duration, so values print
// naturally ("4s", "8ms") and compose with the standard library.
package vclock

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Clock is a monotonically advancing virtual clock.
//
// The zero value is a valid clock positioned at time zero. A Clock is safe
// for concurrent use; the simulator core advances it from a single goroutine
// while auditors and the remote health checker may read it concurrently.
type Clock struct {
	mu     sync.RWMutex
	now    time.Duration
	timers timerHeap
	nextID int64
}

// Now returns the current virtual time as an offset from the start of the
// simulation.
func (c *Clock) Now() time.Duration {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.now
}

// Advance moves virtual time forward by d and fires every timer whose
// deadline is reached, in deadline order. Advancing by a negative duration
// panics: virtual time is monotonic by construction and a negative step is
// always a simulator bug.
func (c *Clock) Advance(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("vclock: Advance called with negative duration %v", d))
	}
	c.mu.Lock()
	target := c.now + d
	fired := c.collectDueLocked(target)
	c.now = target
	c.mu.Unlock()

	// Callbacks run outside the lock so they may schedule new timers.
	for _, t := range fired {
		t.fn(t.when)
	}
}

// AdvanceTo moves virtual time forward to the absolute offset t. It is a
// no-op if t is in the past.
func (c *Clock) AdvanceTo(t time.Duration) {
	now := c.Now()
	if t <= now {
		return
	}
	c.Advance(t - now)
}

// Timer is a handle to a scheduled callback.
type Timer struct {
	id    int64
	when  time.Duration
	fn    func(now time.Duration)
	fired bool
}

// When returns the virtual deadline of the timer.
func (t *Timer) When() time.Duration { return t.when }

// AfterFunc schedules fn to run when the clock reaches now+d. The callback
// runs synchronously inside the Advance call that crosses the deadline.
// Scheduling with d <= 0 fires on the next Advance, however small.
func (c *Clock) AfterFunc(d time.Duration, fn func(now time.Duration)) *Timer {
	if fn == nil {
		panic("vclock: AfterFunc with nil callback")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	t := &Timer{id: c.nextID, when: c.now + d, fn: fn}
	c.timers.push(t)
	return t
}

// Stop cancels the timer if it has not fired. It reports whether the timer
// was still pending.
func (c *Clock) Stop(t *Timer) bool {
	if t == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.fired {
		return false
	}
	return c.timers.remove(t.id)
}

// Reset reschedules t to fire d after the current time and returns the
// handle to keep from then on. It has exactly the effect of Stop(t)
// followed by AfterFunc(d) with t's callback — the timer takes the id
// AfterFunc would have assigned, so the (deadline, id) firing order is the
// same — but a pending timer is re-queued in place, allocating nothing. A
// timer that has already fired (possibly still due to run in the current
// Advance, which will run it) is left alone and a new one is scheduled.
func (c *Clock) Reset(t *Timer, d time.Duration) *Timer {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.fired || !c.timers.remove(t.id) {
		t = &Timer{fn: t.fn}
	}
	c.nextID++
	t.id = c.nextID
	t.when = c.now + d
	c.timers.push(t)
	return t
}

// PendingTimers returns the number of scheduled, unfired timers. It exists
// for tests and for liveness introspection.
func (c *Clock) PendingTimers() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.timers)
}

// NextDeadline returns the deadline of the earliest pending timer and true,
// or zero and false when no timers are pending.
func (c *Clock) NextDeadline() (time.Duration, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if len(c.timers) == 0 {
		return 0, false
	}
	return c.timers[0].when, true
}

// collectDueLocked removes and returns, in firing order, every timer with a
// deadline at or before target. Caller holds c.mu.
func (c *Clock) collectDueLocked(target time.Duration) []*Timer {
	var due []*Timer
	for len(c.timers) > 0 && c.timers[0].when <= target {
		t := c.timers.pop()
		t.fired = true
		due = append(due, t)
	}
	return due
}

// timerHeap is a deadline-ordered min-heap with stable FIFO ordering for
// equal deadlines (ties break on insertion id so repeated runs fire timers
// in an identical order).
type timerHeap []*Timer

func (h timerHeap) less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].id < h[j].id
}

func (h *timerHeap) push(t *Timer) {
	*h = append(*h, t)
	h.up(len(*h) - 1)
}

func (h *timerHeap) pop() *Timer {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	old[n] = nil
	*h = old[:n]
	if n > 0 {
		h.down(0)
	}
	return top
}

func (h *timerHeap) remove(id int64) bool {
	old := *h
	for i, t := range old {
		if t.id != id {
			continue
		}
		n := len(old) - 1
		old[i] = old[n]
		old[n] = nil
		*h = old[:n]
		if i < n {
			h.down(i)
			h.up(i)
		}
		return true
	}
	return false
}

func (h timerHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h timerHeap) down(i int) {
	n := len(h)
	for {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < n && h.less(left, smallest) {
			smallest = left
		}
		if right < n && h.less(right, smallest) {
			smallest = right
		}
		if smallest == i {
			return
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
}

// Sorted returns the pending deadlines in ascending order. Test helper.
func (c *Clock) sortedDeadlines() []time.Duration {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]time.Duration, len(c.timers))
	for i, t := range c.timers {
		out[i] = t.when
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
