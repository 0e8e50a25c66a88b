// Package core (fixture) exercises the lockdiscipline critical-section
// rules. It is loaded under the real core import path with the real package
// name, so its Multiplexer.mu *is* the EM lock as far as the pass's lock
// identities are concerned — the flight-ring and lock-order rules fire
// exactly as they would in the production package.
package core

import (
	"fmt"
	"sync"
)

// Multiplexer mirrors the real EM's lock identity.
type Multiplexer struct {
	mu sync.Mutex
	ch chan int
	ft *FlightTable
}

// FlightTable mirrors the ring owner; RecordSpan is a flight writer by
// receiver type and method name.
type FlightTable struct{ slot int }

// RecordSpan stands in for the real ring store.
func (t *FlightTable) RecordSpan(v int) { t.slot = v }

// Other is a second lock with no sanctioned order against the EM lock.
type Other struct{ mu sync.Mutex }

// sendUnderLock parks the critical section on a full buffer.
func (m *Multiplexer) sendUnderLock() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ch <- 1
}

// printUnderLock does I/O inside the critical section.
func (m *Multiplexer) printUnderLock() {
	m.mu.Lock()
	fmt.Println("held")
	m.mu.Unlock()
}

// nest acquires a lock outside the sanctioned order DAG.
func (m *Multiplexer) nest(o *Other) {
	m.mu.Lock()
	defer m.mu.Unlock()
	o.mu.Lock()
	o.mu.Unlock()
}

// drain blocks on a channel receive; charged at callers through its summary.
func (m *Multiplexer) drain() int { return <-m.ch }

// callsHelperUnderLock blocks transitively: the receive happens in drain.
func (m *Multiplexer) callsHelperUnderLock() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.drain()
}

// ringOutsideLock writes the flight ring without the EM lock held.
func (m *Multiplexer) ringOutsideLock() {
	m.ft.RecordSpan(1)
}

// ringUnderLock is the sanctioned single-writer path: no finding.
func (m *Multiplexer) ringUnderLock() {
	m.mu.Lock()
	m.ft.RecordSpan(2)
	m.mu.Unlock()
}

// batch takes the lock per event instead of per batch.
//
//hypertap:hotpath
func (m *Multiplexer) batch(evs []int) {
	for range evs {
		m.mu.Lock()
		m.ft.slot++
		m.mu.Unlock()
	}
}

// lockPerEvent outlines one per-event acquire; hot batch loops calling it
// are charged through its summary, not excused by the outlining. batchVia
// reaches it, so its own acquire is a hotpath finding as well.
func (m *Multiplexer) lockPerEvent() {
	m.mu.Lock()
	m.ft.slot++
	m.mu.Unlock()
}

// batchVia hides the per-event acquire behind a helper call: the
// loop-acquire rule must still fire, naming the callee via its summary.
//
//hypertap:hotpath
func (m *Multiplexer) batchVia(evs []int) {
	for range evs {
		m.lockPerEvent()
	}
}

// guarded is the early-unlock idiom the branch scan must keep sound: the
// tail after the if runs with the lock still held on the fall-through path,
// and the final Unlock matches it. No finding.
func (m *Multiplexer) guarded(stop bool) {
	m.mu.Lock()
	if stop {
		m.mu.Unlock()
		return
	}
	m.ft.slot++
	m.mu.Unlock()
}

// selectDefault is the sanctioned non-blocking notify: no finding.
func (m *Multiplexer) selectDefault() {
	m.mu.Lock()
	defer m.mu.Unlock()
	select {
	case m.ch <- 1:
	default:
	}
}

// selectBlocking parks until a peer is ready.
func (m *Multiplexer) selectBlocking() {
	m.mu.Lock()
	defer m.mu.Unlock()
	select {
	case v := <-m.ch:
		_ = v
	}
}
