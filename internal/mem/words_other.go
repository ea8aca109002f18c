//go:build !unix

package mem

// NewWords keeps the elements on the Go heap where there is no mmap.
func NewWords[E, O any](_ *O, n int) []E { return make([]E, n) }
