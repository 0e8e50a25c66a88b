// Package fixture exercises the hotpath pass: a marked function is scanned
// for blocking and allocating constructs; the identical unmarked function
// is left alone.
package fixture

import (
	"fmt"
	"sync"
)

type counter struct {
	mu sync.Mutex
	m  map[string]int
}

//hypertap:hotpath
func (c *counter) record(key string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := 0
	for _, v := range c.m {
		total += v
	}
	parts := []int{total}
	parts = append(parts, len(key))
	return fmt.Sprintf("%s=%d", key, parts[0])
}

// coldRecord has the same body but no hotpath marker: no findings.
func (c *counter) coldRecord(key string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := 0
	for _, v := range c.m {
		total += v
	}
	parts := []int{total}
	parts = append(parts, len(key))
	return fmt.Sprintf("%s=%d", key, parts[0])
}

type pair struct{ a, b int }

// values shows the literal rule: struct and array literals are values left
// to allocproof's escape analysis; an address-taken literal is a finding.
//
//hypertap:hotpath
func values(x int) (*pair, [2]int) {
	p := pair{a: x}
	return &pair{a: p.a}, [2]int{x, p.b}
}
