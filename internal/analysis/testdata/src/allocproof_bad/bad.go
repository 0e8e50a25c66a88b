// Package fixture gives the compiler's escape analysis something to find:
// escapes is hotpath-marked and leaks a local to the heap; cold does the
// same thing without the marker and must stay out of the findings.
package fixture

// escapes returns a pointer to a local — the canonical heap escape.
//
//hypertap:hotpath
func escapes() *int {
	v := 42
	return &v
}

// cold allocates freely: no marked root reaches it, so its escapes are
// accepted.
func cold() *int {
	v := 7
	return &v
}
