//go:build !unix

package tm_test

// recoverAllocBudget bounds the Go-heap allocation of recovering a
// space of spaceBytes (TestRecoverAllocatesOneImage). Without mmap the
// space is on the heap (internal/mem/words_other.go), so the budget is
// the space plus 2 MB for the rest of the runtime and recovery's own
// buffers.
func recoverAllocBudget(spaceBytes uint64) uint64 { return spaceBytes + 2<<20 }
