//go:build unix

package mem

import (
	"fmt"
	"syscall"
)

// Backing returns n zero bytes from an anonymous private mapping, and
// the function that unmaps them. The kernel zero-fills each page on its
// first touch, so the bytes a simulation never reaches cost nothing, and
// the Go heap neither clears nor scans them. Host memory and the cache's
// line store both take their bytes from here.
func Backing(n int) ([]byte, func([]byte) error) {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		// As make would on an exhausted heap, fail loudly.
		panic(fmt.Sprintf("mem: mapping %d bytes: %v", n, err))
	}
	return b, syscall.Munmap
}
