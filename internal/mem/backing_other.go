//go:build !unix

package mem

// Backing returns n zero bytes from the Go heap, which the collector
// frees, so there is nothing to unmap.
func Backing(n int) ([]byte, func([]byte) error) { return make([]byte, n), nil }
