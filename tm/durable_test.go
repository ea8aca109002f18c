package tm_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/wal"
	"repro/tm"
)

// TestRecoverAllocatesOneImage pins recovery's space cost: tm.Recover
// allocates the new runtime's space and decodes the checkpoint into it
// in place — no second image, no per-chunk slices. The geometry is the
// rig's served one (256 MB). The bound on the Go heap's allocation is
// recoverAllocBudget: where the space is a mapping outside the heap, a
// fixed budget for the rest of the runtime and recovery's own buffers;
// where it is on the heap, the space plus 2 MB.
func TestRecoverAllocatesOneImage(t *testing.T) {
	geometry := tm.MemConfig{GlobalWords: 1 << 10, HeapWords: 1 << 25, StackWords: 1 << 12, MaxThreads: 32}
	opts := []tm.Option{tm.WithMemory(geometry)}
	dur := []tm.DurOption{tm.DurNoFsync()}
	dir := t.TempDir()
	rt := tm.Open(append(opts, tm.WithDurability(dir, dur...))...)
	root := rt.AllocGlobal(1)
	th := rt.Thread(0)
	push := func(n int) {
		for i := 0; i < n; i++ {
			th.Atomic(func(tx *tm.Tx) {
				node := tx.Alloc(256)
				for w := 1; w < node.Len(); w++ {
					node.Word(w).Store(tx, uint64(i*w)|1)
				}
				node.Ptr(0).Store(tx, root.Ptr(0).Load(tx))
				root.Ptr(0).Store(tx, node)
			})
		}
	}
	push(2000) // ≈ 4 MB in the checkpoint …
	if err := rt.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	push(200) // … and a tail to replay
	want := rt.Unwrap().Space().Checksum()
	spaceBytes := uint64(rt.Unwrap().Space().Size()) * 8
	rt.Crash()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rt2, err := tm.Recover(dir, append(opts, tm.WithDurability("", dur...))...)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer rt2.Close()
	if alloc, budget := after.TotalAlloc-before.TotalAlloc, recoverAllocBudget(spaceBytes); alloc > budget {
		t.Errorf("Recover allocated %d bytes for a %d-byte space, want at most %d", alloc, spaceBytes, budget)
	}
	if got := rt2.Unwrap().Space().Checksum(); got != want {
		t.Errorf("recovered state %#x, crashed instance had %#x", got, want)
	}
	// The recovered allocator carves above the highest logged bump
	// pointer and does not clear what it carves: it must read zero.
	th2 := rt2.Thread(0)
	for _, n := range []int{1, 5, 64, 256, 1000, 9000, 20000} {
		th2.Atomic(func(tx *tm.Tx) {
			b := tx.Alloc(n)
			for w := 0; w < n; w++ {
				if v := b.Word(w).Load(tx); v != 0 {
					t.Fatalf("recovered runtime: Alloc(%d) word %d = %#x, want 0", n, w, v)
				}
				b.Word(w).Store(tx, ^uint64(0))
			}
		})
	}
}

// TestCheckpointWhileAllocating is the fuzzy snapshot under fire: four
// threads commit allocate-write-publish transactions — each block is
// sized to take a fresh span, so every commit moves the heap bump
// pointer — and journaled Thread.Alloc / StackPush operations, while a
// fifth goroutine checkpoints in a loop. Each round
// stops at a seeded point, crashes, recovers and compares checksums. A
// checkpoint that sampled a bump pointer before taking its log cut
// would record a chunk as never allocated although a transaction
// committed before the cut (and therefore never replayed) wrote it.
func TestCheckpointWhileAllocating(t *testing.T) {
	const workers = 4
	geometry := tm.MemConfig{GlobalWords: 1 << 8, HeapWords: 1 << 22, StackWords: 1 << 10, MaxThreads: workers}
	const rounds = 8
	rng := rand.New(rand.NewSource(23))
	for round := 0; round < rounds; round++ {
		dir := t.TempDir()
		opts := []tm.Option{tm.WithMemory(geometry), tm.WithDurability(dir, tm.DurNoFsync())}
		rt := tm.Open(opts...)
		roots := rt.AllocGlobal(workers)
		iters := 40 + rng.Intn(40)

		var stop atomic.Bool
		var checkpoints int
		cpDone := make(chan error, 1)
		go func() {
			for !stop.Load() {
				if err := rt.Checkpoint(); err != nil {
					cpDone <- err
					return
				}
				checkpoints++
			}
			cpDone <- nil
		}()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				th := rt.Thread(w)
				raw := rt.Unwrap().Thread(w)
				for i := 0; i < iters; i++ {
					th.Atomic(func(tx *tm.Tx) {
						node := tx.Alloc(4096)
						for k := 1; k < node.Len(); k += 61 {
							node.Word(k).Store(tx, uint64(w)<<40|uint64(i)<<16|uint64(k))
						}
						node.Ptr(0).Store(tx, roots.Ptr(w).Load(tx))
						roots.Ptr(w).Store(tx, node)
					})
					if i%8 == 0 {
						raw.Store(th.Alloc(700).Addr(), uint64(i))
						_, mark := raw.StackPush(16)
						raw.StackPop(mark)
					}
				}
			}(w)
		}
		wg.Wait()
		stop.Store(true)
		if err := <-cpDone; err != nil {
			t.Fatalf("round %d: checkpoint: %v", round, err)
		}
		want := rt.Unwrap().Space().Checksum()
		rt.Crash()
		rt2, err := tm.Recover(dir, opts...)
		if err != nil {
			t.Fatalf("round %d: recover after %d concurrent checkpoints: %v", round, checkpoints, err)
		}
		got := rt2.Unwrap().Space().Checksum()
		rt2.Close()
		if got != want {
			t.Fatalf("round %d: recovered state %#x, crashed instance had %#x (%d concurrent checkpoints)", round, got, want, checkpoints)
		}
		if checkpoints == 0 {
			t.Errorf("round %d: no checkpoint completed while the workers ran", round)
		}
	}
}

// TestAtomicReturnsDurable pins Atomic's contract on a durable runtime:
// it returns only once its commit's ack is done, so with one thread
// nothing is pending in the log and the segment file holds every
// appended record the moment Atomic returns — also when a Deferred
// scope just before it left a record pending.
func TestAtomicReturnsDurable(t *testing.T) {
	dir := t.TempDir()
	rt := tm.Open(tm.WithMemory(tm.MemConfig{GlobalWords: 64, HeapWords: 1 << 12, StackWords: 256, MaxThreads: 1}),
		tm.WithDurability(dir, tm.DurNoFsync()))
	defer rt.Close()
	log := rt.Unwrap().Durable()
	seg, err := os.Open(filepath.Join(dir, wal.SegName(0)))
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	cell := rt.AllocGlobal(1)
	th := rt.Thread(0)
	add := func(tx *tm.Tx) { cell.Word(0).Add(tx, 1) }
	for i := 0; i < 200; i++ {
		if i%2 == 1 {
			rt.Unwrap().Thread(0).Deferred(func() { th.Atomic(add) }) // leaves a record pending
		}
		th.Atomic(add)
		if !log.TailAck().Done() {
			t.Fatalf("transaction %d: Atomic returned with the log still pending", i)
		}
		// The segment is reserved whole (8 MiB): read the appended bytes
		// and a margin past them. Its records end where the first one
		// fails to decode.
		b := make([]byte, 16+log.Stats().Bytes+4096)
		if _, err := seg.ReadAt(b, 0); err != nil {
			t.Fatal(err)
		}
		off := 16
		var rec wal.Record
		for {
			n, err := wal.DecodeRecord(b[off:], &rec)
			if err != nil {
				break
			}
			off += n
		}
		if written, appended := uint64(off-16), log.Stats().Bytes; written != appended {
			t.Fatalf("transaction %d: %d of %d appended bytes written when Atomic returned", i, written, appended)
		}
	}
}

// TestRefusedRecordReachesItsCommit makes the redo log refuse a record
// under DurNoFsync: a directory squats on the second segment's name, so
// the first rotation fails once 8 MiB of records — 512-word blocks
// allocated one batch each — fill the first. Atomic still returns true,
// but the error
// is in the ack a caller reveals results behind: the Batcher.Flush
// whose record was refused and every later one return it from Wait, as
// do Deferred scopes around a writing or a read-only transaction, and
// Sync and Close.
func TestRefusedRecordReachesItsCommit(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, wal.SegName(1)), 0o755); err != nil {
		t.Fatal(err)
	}
	rt := tm.Open(tm.WithMemory(tm.MemConfig{GlobalWords: 64, HeapWords: 1 << 21, StackWords: 256, MaxThreads: 1}),
		tm.WithDurability(dir, tm.DurNoFsync()))
	root := rt.AllocGlobal(1)
	th := rt.Thread(0)
	push := func(tx *tm.Tx) {
		node := tx.Alloc(512)
		for w := 1; w < node.Len(); w++ {
			node.Word(w).Store(tx, uint64(w))
		}
		node.Ptr(0).Store(tx, root.Ptr(0).Load(tx))
		root.Ptr(0).Store(tx, node)
	}
	b := tm.NewBatcher(th, 1, 1)
	var refused error
	first := -1
	for i := 0; i < 2000; i++ {
		b.Admit(tm.BatchItem{
			Footprint: tm.Footprint{Writes: []uint64{0}},
			Apply:     func(tx *tm.Tx, _ tm.Struct) bool { push(tx); return true },
		})
		res := b.Flush()
		err := res.Wait()
		switch {
		case first < 0 && err != nil:
			first, refused = i, err
		case first >= 0 && err != refused:
			t.Fatalf("batch %d after the refusal at %d: Wait = %v, want %v", i, first, err, refused)
		}
		if !res.Durable() {
			t.Fatalf("batch %d: ack not done under DurNoFsync", i)
		}
	}
	if first < 0 {
		t.Fatal("no batch reported the refused rotation")
	}
	raw := rt.Unwrap().Thread(0)
	if !th.Atomic(push) {
		t.Error("Atomic reported a refused record as an abort")
	}
	if err := raw.Deferred(func() { th.Atomic(push) }).Wait(); err != refused {
		t.Errorf("Deferred scope around a commit: ack Wait = %v, want %v", err, refused)
	}
	readOnly := func(tx *tm.Tx) { root.Ptr(0).Load(tx) }
	if err := raw.Deferred(func() { th.Atomic(readOnly) }).Wait(); err != refused {
		t.Errorf("Deferred scope around a read: ack Wait = %v, want %v", err, refused)
	}
	if err := rt.Sync(); err != refused {
		t.Errorf("Sync = %v, want %v", err, refused)
	}
	if err := rt.Close(); err != refused {
		t.Errorf("Close = %v, want %v", err, refused)
	}
}

// TestDurabilityWordSplit pins DurabilityStats' per-source word counts
// on one hand-built transaction: one shared store (an undo word), a
// kept and a freed allocation (whole blocks with their header words),
// and a stack block.
func TestDurabilityWordSplit(t *testing.T) {
	rt := tm.Open(tm.WithMemory(tm.MemConfig{GlobalWords: 64, HeapWords: 1 << 16, StackWords: 256, MaxThreads: 1}),
		tm.WithDurability(t.TempDir(), tm.DurNoFsync()))
	defer rt.Close()
	cell := rt.AllocGlobal(1)
	th := rt.Thread(0)
	before := *rt.Snapshot().Durability
	th.Atomic(func(tx *tm.Tx) {
		cell.Word(0).Store(tx, 7)
		tx.Alloc(3)
		tx.Free(tx.Alloc(2))
		tx.StackAlloc(5)
	})
	after := *rt.Snapshot().Durability
	got := [...]uint64{
		after.Records - before.Records,
		after.UndoWords - before.UndoWords,
		after.AllocWords - before.AllocWords,
		after.AllocFreedWords - before.AllocFreedWords,
		after.StackWords - before.StackWords,
	}
	want := [...]uint64{1, 1, 4 + 3, 3, 5}
	if got != want {
		t.Errorf("records, undo, alloc, alloc freed, stack words = %v, want %v", got, want)
	}
}
