//go:build unix

package tm_test

import (
	"runtime"
	"testing"

	"repro/tm"
)

// TestOpenTouchesOnlyWhatItUses pins what a runtime costs the Go heap
// where the space is a mapping (internal/mem/words_unix.go): opening the
// rig's served geometry — a 256 MB space — must grow the heap by the
// orec table and thread state, not by the space. The first Open is
// dropped and collected first, as every segment after a process's first
// finds it; on the heap that second space was the one the runtime had to
// clear word by word.
func TestOpenTouchesOnlyWhatItUses(t *testing.T) {
	geometry := tm.MemConfig{GlobalWords: 1 << 10, HeapWords: 1 << 25, StackWords: 1 << 12, MaxThreads: 32}
	tm.Open(tm.WithMemory(geometry)).Close()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rt := tm.Open(tm.WithMemory(geometry))
	runtime.ReadMemStats(&after)
	defer rt.Close()
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown >= 32<<20 {
		t.Errorf("Open grew the Go heap by %d MB for a %d MB space, want < 32 MB",
			grown>>20, rt.Unwrap().Space().Size()*8>>20)
	}
}

// recoverAllocBudget bounds the Go-heap allocation of recovering a
// space of spaceBytes (TestRecoverAllocatesOneImage). The space is a
// mapping here, so the budget leaves it out: 16 MB, against ≈ 10.8 MB
// measured for the 257 MB served geometry on linux/amd64 (the 2 MB
// orec table, thread state, the checkpoint's chunk buffers). A second
// image of the space on the heap would exceed it sixteenfold.
func recoverAllocBudget(spaceBytes uint64) uint64 { return 16 << 20 }
