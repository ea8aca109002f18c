//go:build !unix

package mem

// newWords keeps the space on the Go heap where there is no mmap.
func newWords(_ *Space, n int) []uint64 { return make([]uint64, n) }
