package stm

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/mem"
)

// statm reads field i of /proc/self/statm (0: mapped size, 1: resident
// set) in bytes.
func statm(t *testing.T, i int) int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		t.Skipf("no /proc/self/statm: %v", err)
	}
	pages, err := strconv.ParseInt(strings.Fields(string(b))[i], 10, 64)
	if err != nil {
		t.Fatalf("parsing statm %q: %v", b, err)
	}
	return pages * int64(os.Getpagesize())
}

// orecBytes is the size of one runtime's orec table.
const orecBytes = 8 << DefaultOrecBits

// smallMem is a geometry whose space is small next to the orec table.
var smallMem = mem.Config{GlobalWords: 1 << 10, HeapWords: 1 << 12, StackWords: 1 << 10, MaxThreads: 2}

// TestDroppedRuntimesUnmapOrecs: the orec table is a mapping
// (mem.NewWords) that a dropped runtime gives back, and that a runtime
// pays for only as its barriers touch it. 128 runtimes, each with its
// last orec written, created and dropped one after another, leave the
// process mapping no more than 8 tables more than it started; 32 live
// runtimes that each ran a transaction grow the resident set by less
// than one table. (With the table on the Go heap they grew it by
// ≈ 4.7 MiB here, and by 2 MiB each where the heap reused freed memory,
// which it must clear.)
func TestDroppedRuntimesUnmapOrecs(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("reads /proc/self/statm")
	}
	runtime.GC()
	before := statm(t, 0)
	for i := 0; i < 128; i++ {
		rt := New(smallMem, Baseline())
		rt.orecs[len(rt.orecs)-1].Store(uint64(i)) // touch it: the mapping is real
		runtime.GC()
	}
	// Cleanups run on their own goroutine some time after the cycle that
	// found the runtime unreachable; wait for the event, bounded.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		grown := statm(t, 0) - before
		if grown <= 8*orecBytes {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("process still maps %d MiB more than before 128 dropped runtimes", grown>>20)
		}
		time.Sleep(time.Millisecond)
	}

	before = statm(t, 1)
	live := make([]*Runtime, 32)
	for i := range live {
		live[i] = New(smallMem, Baseline())
		g := live[i].Space().AllocGlobal(1)
		live[i].Thread(0).Atomic(func(tx *Tx) { tx.Store(g, 1, AccShared) })
	}
	grown := statm(t, 1) - before
	t.Logf("32 live runtimes grew the resident set by %d KiB", grown>>10)
	if grown >= orecBytes {
		t.Errorf("32 live runtimes grew the resident set by %d KiB, want less than one orec table (%d KiB)",
			grown>>10, orecBytes>>10)
	}
	runtime.KeepAlive(live)
}
