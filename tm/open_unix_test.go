//go:build unix

package tm_test

import (
	"runtime"
	"testing"

	"repro/tm"
)

// TestOpenTouchesOnlyWhatItUses pins what a runtime costs the Go heap
// where the space and the orec table are mappings
// (internal/mem/words_unix.go): opening the rig's served geometry — a
// 256 MB space and a 2 MiB orec table — must grow the heap by thread
// state and the compiled engines only, ≈ 3 KB on linux/amd64, against a
// bound of 256 KiB. The first Open is dropped and collected first, as
// every segment after a process's first finds it; on the heap that
// second space and table were the ones the runtime had to clear word by
// word.
func TestOpenTouchesOnlyWhatItUses(t *testing.T) {
	geometry := tm.MemConfig{GlobalWords: 1 << 10, HeapWords: 1 << 25, StackWords: 1 << 12, MaxThreads: 32}
	tm.Open(tm.WithMemory(geometry)).Close()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rt := tm.Open(tm.WithMemory(geometry))
	runtime.ReadMemStats(&after)
	defer rt.Close()
	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("Open grew the Go heap by %d bytes", grown)
	if grown >= 256<<10 {
		t.Errorf("Open grew the Go heap by %d KiB for a %d MB space, want < 256 KiB",
			grown>>10, rt.Unwrap().Space().Size()*8>>20)
	}
}

// recoverAllocBudget bounds the Go-heap allocation of recovering a
// space of spaceBytes (TestRecoverAllocatesOneImage). The space and the
// orec table are mappings here, so the budget leaves them out: 16 MB,
// against ≈ 8.7 MB measured for the 257 MB served geometry on
// linux/amd64 (thread state, the checkpoint's chunk buffers). A second
// image of the space on the heap would exceed it sixteenfold.
func recoverAllocBudget(spaceBytes uint64) uint64 { return 16 << 20 }
