//go:build !unix

package mem

// backing returns n zero bytes from the Go heap, which the collector
// frees, so there is nothing to unmap.
func backing(n int) ([]byte, func([]byte) error) { return make([]byte, n), nil }
