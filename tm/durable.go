package tm

import (
	"fmt"
	"sync"

	"repro/internal/mem"
	"repro/internal/wal"
)

// Durability tier. WithDurability(dir) attaches a segmented redo log
// with group commit and a content-addressed checkpoint store to the
// runtime: every committed transaction's effects are serialized into
// the log, and Atomic returns once they are durable — batched across
// threads and acked after fdatasync, or, under DurNoFsync, at once: the
// record is in the page cache when it is appended. Inside
// Batcher.Flush and the stm-level Thread.Deferred scope the ack goes to
// the caller instead. Checkpoint streams the allocated extent of the
// live space into deduplicated, SHA-256-addressed pack chunks (time
// proportional to memory in use, one chunk of extra space).
// Recover(dir) rebuilds a runtime — in place, verifying every chunk
// against its score — from the newest checkpoint plus the redo tail —
// bit-identical (mem.Space.Checksum) to the crashed instance at its
// last enqueued record.
//
// Recovery contract:
//
//   - Non-transactional writes through Runtime.Space() (typical
//     workload setup code) are NOT journaled. Call Runtime.Checkpoint
//     once setup is done; everything after that — Atomic transactions
//     and the journaled Thread operations (Store, StoreFloat, Alloc,
//     StackPush) — is replayable.
//   - Recovered runtimes do not reconstruct per-thread allocator free
//     lists or bump spans; blocks that were on a free list at the crash
//     leak (their words are preserved, they are just never reused).
//   - The global clock restores to the maximum logged version, which is
//     consistent because the ownership-record table restarts fresh.

// durSettings is the configuration WithDurability accumulates.
type durSettings struct {
	dir     string
	noFsync bool
}

// DurOption tunes WithDurability.
type DurOption func(*durSettings)

// DurNoFsync skips fsync and is intended for tests: a commit is
// durable once its record is in the page cache, which it is when the
// record is appended, so no commit waits. The crash-replay
// differential simulates crashes in-process, where the page cache
// survives.
func DurNoFsync() DurOption {
	return func(ds *durSettings) { ds.noFsync = true }
}

// WithDurability persists the runtime into dir: a segmented redo log
// (8 MiB segments) with group commit plus content-addressed checkpoints
// (4096-word chunks), written when Runtime.Checkpoint is called. See the
// recovery contract above; with this option absent the commit path is
// completely unchanged (pay-as-you-go).
func WithDurability(dir string, tune ...DurOption) Option {
	return func(s *settings) {
		ds := &durSettings{dir: dir}
		for _, o := range tune {
			if o != nil {
				o(ds)
			}
		}
		s.dur = ds
	}
}

// durRuntime is the live durability state of one Runtime.
type durRuntime struct {
	dir   string
	log   *wal.Log
	store *wal.CheckpointStore

	cpMu      sync.Mutex // serializes checkpoints
	closeOnce sync.Once
	closeErr  error
}

// openDurable wires a fresh (or recovered) runtime to its log and
// checkpoint store. startSeg/startSeq are zero for a fresh directory
// and the recovered continuation point otherwise. On failure nothing
// stays behind: the log is closed and the runtime is not durable.
func openDurable(rt *Runtime, ds *durSettings, startSeg, startSeq uint64, initialCP bool) error {
	var log *wal.Log
	fail := func(err error) error {
		if log != nil {
			log.Close()
		}
		rt.dur = nil
		rt.rt.SetDurable(nil)
		return err
	}
	log, err := wal.OpenLog(ds.dir, startSeg, startSeq, wal.Options{NoFsync: ds.noFsync})
	if err != nil {
		return fail(err)
	}
	store, err := wal.OpenStore(ds.dir)
	if err != nil {
		return fail(err)
	}
	d := &durRuntime{dir: ds.dir, log: log, store: store}
	rt.dur = d
	rt.rt.SetDurable(log)
	if initialCP {
		// An initial checkpoint makes Recover total: any directory that
		// ever hosted a durable runtime has at least one manifest.
		if err := rt.Checkpoint(); err != nil {
			return fail(err)
		}
	}
	return nil
}

// Checkpoint writes a content-addressed snapshot of the space — the
// allocated extent only: what lies above the bump pointers is recorded
// as zero unread — and prunes redo segments wholly below its log cut.
// Safe to call while transactions run (the snapshot is fuzzy; the redo
// tail repairs any in-flight effects at recovery) — but after
// non-journaled setup writes via Space(), a checkpoint is *required*
// for those to survive a crash. Without WithDurability it is a no-op.
func (rt *Runtime) Checkpoint() error {
	d := rt.dur
	if d == nil {
		return nil
	}
	d.cpMu.Lock()
	defer d.cpMu.Unlock()
	if err := d.log.Sync(); err != nil {
		return err
	}
	cutSeg, cutOff := d.log.Position()
	// The one ordering the streamed writer rests on: both bump pointers
	// are monotonic and are read *after* the cut is taken. A record
	// before the cut (never replayed) was appended after its words were
	// allocated and written, so every such word lies below the values
	// read here and its chunk is read; whatever is allocated above them
	// from now on is logged after the cut and repaired by replay.
	space := rt.rt.Space()
	globalsNext, heapNext := space.GlobalsNext(), space.HeapNext()
	heapLo, heapHi := space.HeapRange()
	_, err := d.store.WriteCheckpoint(wal.Snapshot{
		Clock:       rt.rt.Clock(),
		GlobalsNext: globalsNext,
		HeapNext:    heapNext,
		Geometry:    wal.Geometry(rt.mc),
		CutSeg:      cutSeg,
		CutOff:      cutOff,
		Untouched:   []wal.Extent{{Lo: globalsNext, Hi: uint64(heapLo)}, {Lo: heapNext, Hi: uint64(heapHi)}},
	}, space)
	if err != nil {
		return err
	}
	return d.log.TruncateBefore(cutSeg)
}

// Sync blocks until every record appended so far is durable. A no-op
// without WithDurability.
func (rt *Runtime) Sync() error {
	if rt.dur == nil {
		return nil
	}
	return rt.dur.log.Sync()
}

// Close shuts the runtime down. When durable it flushes and fsyncs the
// redo log, appends a seal record, and closes the segment files; it is
// idempotent and a no-op for non-durable runtimes. Call it after worker
// threads have joined.
func (rt *Runtime) Close() error {
	d := rt.dur
	if d == nil {
		return nil
	}
	d.closeOnce.Do(func() {
		space := rt.rt.Space()
		seal := &wal.Record{
			Kind:        wal.KindSeal,
			Version:     rt.rt.Clock(),
			GlobalsNext: space.GlobalsNext(),
			HeapNext:    space.HeapNext(),
		}
		if ack, err := d.log.Append(seal); err == nil {
			if werr := ack.Wait(); werr != nil {
				d.closeErr = werr
			}
		} else {
			d.closeErr = err
		}
		if err := d.log.Close(); err != nil && d.closeErr == nil {
			d.closeErr = err
		}
		rt.rt.SetDurable(nil)
	})
	return d.closeErr
}

// Crash simulates a process kill for recovery tests: the log stops
// without a seal record, its last segment keeps its reserved,
// zero-filled length, and the runtime must not be used afterwards.
// Records already appended remain readable (an in-process crash cannot
// lose the page cache); acked commits were durable regardless.
func (rt *Runtime) Crash() {
	d := rt.dur
	if d == nil {
		return
	}
	d.closeOnce.Do(func() {
		d.log.Kill()
		rt.rt.SetDurable(nil)
	})
}

// Recover rebuilds a runtime from dir: the newest loadable checkpoint,
// decoded straight into the new runtime's space, plus a replay of the
// redo tail (truncating a torn final record). The memory geometry comes
// from the checkpoint manifest; opts configure everything else (engine
// profile, phases, …) and should match the options the crashed instance
// ran with. A WithDurability option among opts contributes its tuning
// (its directory argument is ignored in favor of dir); without one,
// defaults apply. The recovered runtime is durable again: it
// continues the log after the replayed tail and writes a fresh
// post-recovery checkpoint.
func Recover(dir string, opts ...Option) (*Runtime, error) {
	rec, err := wal.Recover(dir)
	if err != nil {
		return nil, err
	}
	s := fold(opts)
	s.mem = mem.Config(rec.Geometry) // wal.Geometry mirrors it field for field
	if s.mem.GlobalWords <= 0 || s.mem.HeapWords <= 0 || s.mem.StackWords <= 0 || s.mem.MaxThreads <= 0 {
		return nil, fmt.Errorf("tm: checkpoint manifest has invalid geometry %+v", rec.Geometry)
	}
	ds := s.dur
	if ds == nil {
		ds = &durSettings{}
	}
	ds.dir = dir
	rt := newRuntime(s)
	space := rt.rt.Space()
	var st *wal.RecoveredState
	if err := space.Restore(func(words []uint64) (err error) {
		st, err = rec.Load(words)
		return err
	}); err != nil {
		return nil, err
	}
	space.SetGlobalsNext(st.GlobalsNext)
	space.SetHeapNext(st.HeapNext)
	rt.rt.SetClock(st.Clock)
	if err := openDurable(rt, ds, st.NextSeg, st.NextSeq, false); err != nil {
		return nil, err
	}
	// A post-recovery checkpoint folds the replayed tail in, so the next
	// recovery is fast, and lets us reclaim the previous incarnation's
	// segments (the new log only truncates its own).
	if err := rt.Checkpoint(); err != nil {
		rt.Close()
		return nil, err
	}
	if err := wal.RemoveSegmentsBelow(dir, st.NextSeg); err != nil {
		rt.Close()
		return nil, err
	}
	return rt, nil
}

// Durable reports whether the runtime was opened with WithDurability
// (and has not been closed or crashed).
func (rt *Runtime) Durable() bool { return rt.dur != nil && rt.rt.Durable() != nil }

// durabilityStats flattens the log and checkpoint counters, or nil when
// the runtime is not durable.
func (rt *Runtime) durabilityStats() *DurabilityStats {
	d := rt.dur
	if d == nil {
		return nil
	}
	ls := d.log.Stats()
	ss := d.store.Stats()
	dw := rt.rt.DurableWords()
	return &DurabilityStats{
		Records:         ls.Records,
		LogBytes:        ls.Bytes,
		Batches:         ls.Batches,
		Fsyncs:          ls.Fsyncs,
		Segments:        ls.Segments,
		UndoWords:       dw.Undo,
		AllocWords:      dw.Alloc,
		AllocFreedWords: dw.AllocFreed,
		StackWords:      dw.Stack,
		Checkpoints:     ss.Checkpoints,
		ChunksWritten:   ss.ChunksWritten,
		ChunksDeduped:   ss.ChunksDeduped,
		PackBytes:       ss.BytesWritten,
		ChunksHashed:    ss.ChunksHashed,
		ChunksZero:      ss.ChunksZero,
	}
}
