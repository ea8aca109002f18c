package tm

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/mem"
	"repro/internal/wal"
)

// TestOpenDurableCleansUpOnFailure forces each failure return of
// openDurable and asserts the error comes back, no goroutine outlives
// the call, and the runtime is not left durable. The suite runs as
// root, so the failures are squatters, not permissions. wal.OpenLog
// creates the directory and the first segment, so a regular file where
// the directory should be and a directory on the first segment's name
// both fail it; a squatter on the first pack index fails
// wal.OpenStore, and one on the first manifest's temporary file fails
// the initial checkpoint.
func TestOpenDurableCleansUpOnFailure(t *testing.T) {
	cases := []struct {
		name  string
		plant func(t *testing.T, dir string)
	}{
		{"openlog-file-on-directory", func(t *testing.T, dir string) {
			if err := os.WriteFile(dir, []byte("x"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"openstore-dir-on-first-index", func(t *testing.T, dir string) {
			mkdirAll(t, filepath.Join(dir, wal.IndexName(0)))
		}},
		{"checkpoint-dir-on-manifest-tmp", func(t *testing.T, dir string) {
			mkdirAll(t, filepath.Join(dir, wal.ManifestName(0)+".tmp"))
		}},
		{"openlog-dir-on-first-segment", func(t *testing.T, dir string) {
			mkdirAll(t, filepath.Join(dir, wal.SegName(0)))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "dur")
			tc.plant(t, dir)
			before := runtime.NumGoroutine()
			rt := newRuntime(fold([]Option{WithMemory(mem.Config{GlobalWords: 64, HeapWords: 1 << 12, StackWords: 64, MaxThreads: 2})}))
			ds := &durSettings{dir: dir, noFsync: true}
			if err := openDurable(rt, ds, 0, 0, true); err == nil {
				t.Fatal("openDurable succeeded")
			}
			if rt.Durable() || rt.dur != nil {
				t.Error("runtime left durable after a failed open")
			}
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				runtime.Gosched()
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Errorf("%d goroutines before, %d after: the flusher is still running", before, n)
			}
		})
	}
}

func mkdirAll(t *testing.T, path string) {
	t.Helper()
	if err := os.MkdirAll(path, 0o755); err != nil {
		t.Fatal(err)
	}
}

// servedGeometry is the address space the rig's kv-serve workloads run
// on: 256 MB, of which a run allocates a fraction.
var servedGeometry = mem.Config{GlobalWords: 1 << 10, HeapWords: 1 << 25, StackWords: 1 << 12, MaxThreads: 32}

// TestCheckpointCostFollowsExtent counts what a checkpoint does instead
// of timing it. On a fresh space nothing lies below the bump pointers
// and the stacks read as zero: no chunk is hashed and the call allocates
// the chunk buffers and a manifest, not an image. After a set-up that
// allocates and (un-journaled) fills k words, the next checkpoint hashes
// the chunks those words lie in and nothing else.
func TestCheckpointCostFollowsExtent(t *testing.T) {
	rt := newRuntime(fold([]Option{WithMemory(servedGeometry)}))
	ds := &durSettings{dir: t.TempDir(), noFsync: true}
	if err := openDurable(rt, ds, 0, 0, false); err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := rt.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	first := rt.Snapshot().Durability
	cw := rt.dur.store.ChunkWords()
	chunks := uint64((rt.rt.Space().Size() + cw - 1) / cw)
	if first.ChunksHashed != 0 || first.ChunksZero != chunks {
		t.Errorf("fresh space: hashed %d chunks and recorded %d zero, want 0 and %d", first.ChunksHashed, first.ChunksZero, chunks)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("fresh checkpoint allocated %d bytes, want < 1 MB", alloc)
	}

	// Blocks above the largest size class are carved contiguously from
	// the central heap, so k words occupy k + one header each.
	const blocks, blockWords = 10, 100_000
	th, space := rt.Thread(0), rt.rt.Space()
	for b := 0; b < blocks; b++ {
		s := th.Alloc(blockWords)
		for i := 0; i < blockWords; i++ {
			space.Store(s.Addr()+mem.Addr(i), uint64(b)<<32|uint64(i)|1)
		}
	}
	if err := rt.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	second := rt.Snapshot().Durability
	hashed := second.ChunksHashed - first.ChunksHashed
	k := blocks * blockWords
	if lo, hi := uint64(k/cw), uint64((k+cw-1)/cw+2); hashed < lo || hashed > hi {
		t.Errorf("after allocating %d words the checkpoint hashed %d chunks, want %d..%d", k, hashed, lo, hi)
	}
	if written := second.ChunksWritten - first.ChunksWritten; written != hashed {
		t.Errorf("%d chunks hashed but %d written: every one is novel", hashed, written)
	}
}
