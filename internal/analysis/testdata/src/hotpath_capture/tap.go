// Package fixture models the exit-stream capture tap under the capture
// import path: the per-event recording function is the marked root and
// writes only into its preallocated buffer (allocproof must come back
// empty), the unmarked helper it calls is checked because it is reached,
// and a cold helper nothing on the path calls is left alone.
package fixture

import "sync"

// tap is a miniature of capture.Recorder: one flat buffer, a cursor, a
// sticky error.
type tap struct {
	mu   sync.Mutex
	buf  []byte
	n    int
	bad  bool
	last int64
}

// recordEvent is the hot path's root: lock-free, allocation-free — a gated
// buffer write per published event, exactly the shape the real recorder
// must keep.
//
//hypertap:hotpath
func (t *tap) recordEvent(seq uint64, kind byte, now int64) {
	if t.bad {
		return
	}
	if now != t.last {
		t.recordTick(now)
	}
	if len(t.buf)-t.n < 9 {
		t.flush()
		if t.bad {
			return
		}
	}
	b := t.buf[t.n:]
	b[0] = kind
	for i := 0; i < 8; i++ {
		b[1+i] = byte(seq >> (8 * i))
	}
	t.n += 9
}

// recordTick carries no marker, but recordEvent reaches it, so its lock is
// the hotpath finding.
func (t *tap) recordTick(now int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.buf)-t.n < 8 {
		t.flush()
	}
	t.n += 8
	t.last = now
}

// emitHeader is cold and allocates freely; nothing on the hot path calls
// it, like the real recorder's header and view-read emitters.
func (t *tap) emitHeader(names []string) []byte {
	out := make([]byte, 0, 64)
	for _, s := range names {
		out = append(out, byte(len(s)))
		out = append(out, s...)
	}
	return out
}

// flush drains to the sink. recordEvent reaches it, so it is checked, and
// it has nothing to report.
func (t *tap) flush() {
	if t.n == 0 {
		return
	}
	t.n = 0
}
