// Package core (fixture) exercises lockdiscipline escapes: a reasoned allow
// suppresses exactly its own pass on a multi-diagnostic line, and an allow
// that no longer matches anything surfaces as a stale-escape finding.
package core

import (
	"fmt"
	"sync"
	"time"
)

// Reporter guards a best-effort output path.
type Reporter struct{ mu sync.Mutex }

// flush carries a reasoned allow: the I/O finding is suppressed.
func (r *Reporter) flush() {
	r.mu.Lock()
	defer r.mu.Unlock()
	//hypertap:allow lockdiscipline bounded best-effort write; nothing contends with shutdown
	fmt.Println("flush")
}

// nap produces two findings on one line — wallclock (time.Sleep in a
// deterministic package) and lockdiscipline (a stall under the mutex). The
// allow names only wallclock, so the lockdiscipline finding must survive:
// an escape suppresses its named pass, not the line.
func (r *Reporter) nap() {
	r.mu.Lock()
	defer r.mu.Unlock()
	time.Sleep(time.Millisecond) //hypertap:allow wallclock fixture pins per-pass suppression
}

// clean has no violation, so the allow above it suppresses nothing and is
// reported as stale.
//
//hypertap:allow lockdiscipline the violation this excused was removed
func (r *Reporter) clean() {}

// sample is the outlined-sampler shape: the periodic lock acquisition lives
// in its own function so the batch loop body stays lock-free. batchSampled
// reaches it, so the hotpath pass checks it too and its lock needs a reason.
func (r *Reporter) sample() {
	r.mu.Lock() //hypertap:allow hotpath one acquire per sample stride, not per event
	r.mu.Unlock()
}

// batchSampled mirrors the EM's sampled batch loop: the loop-acquire rule
// charges the outlined acquire at the call site via sample's summary, and a
// reasoned line allow there is the sanctioned escape — one acquire per
// sample stride is a design decision, not a per-event lock.
//
//hypertap:hotpath
func (r *Reporter) batchSampled(evs []int) {
	for i := range evs {
		if i%256 == 0 {
			//hypertap:allow lockdiscipline one acquire per sample stride, not per event; the helper is outlined so the loop body stays lock-free
			r.sample()
		}
	}
}
