// Package fixture exercises the hot set's reachability: the hotpath pass
// checks every function a marked root statically reaches, marked or not,
// and leaves an unreached function with the same body alone. A marker on a
// function another marked function already reaches is a directive finding.
package fixture

import "sync"

type vcpu struct {
	mu    sync.Mutex
	log   []uint64
	exits uint64
}

// exit is the root: clean itself, it reaches note and tally.
//
//hypertap:hotpath
func (v *vcpu) exit(reason uint64) {
	v.tally()
	v.note(reason)
}

// note carries no marker; exit reaches it, so its lock and append are
// findings.
func (v *vcpu) note(reason uint64) {
	v.mu.Lock()
	v.log = append(v.log, reason)
	v.mu.Unlock()
}

// coldNote has note's body, but nothing marked reaches it: no findings.
func (v *vcpu) coldNote(reason uint64) {
	v.mu.Lock()
	v.log = append(v.log, reason)
	v.mu.Unlock()
}

// tally is clean, but its marker is redundant: exit already reaches it.
//
//hypertap:hotpath
func (v *vcpu) tally() { v.exits++ }
