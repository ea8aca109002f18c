package stm

import (
	"math"
	"sync/atomic"

	"repro/internal/mem"
	"repro/internal/wal"
)

// Durability glue: when a redo log is attached (SetDurable), the
// lifecycle layer serializes the effects of every state-changing event
// into wal records. The contract is word-for-word: replaying the log
// over a checkpoint must reproduce the exact space image — including
// the "garbage" an abort leaves in freed blocks and popped stack
// frames, because mem.Space.Checksum covers every word.
//
// Coverage argument. Every word a transaction attempt changes is in at
// least one of:
//
//   - the undo log: writeFull always logs before storing, annotated
//     private writes log (without locking), and captured stores log at
//     nesting depth > 1;
//   - a block this transaction allocated, in tx.allocs whether live
//     or freed again (captured stores at depth 1 — including
//     compiler-elided ones, whose provenance confines them to captured
//     memory);
//   - the transaction-local stack region [curSP, startSP) — curSP only
//     decreases within an attempt, so the range also covers frames a
//     partial abort popped.
//
// Record build therefore reads the *current* space at the undo-logged
// addresses and dumps the alloc blocks and stack region verbatim. Every
// source is either orec-locked by us or captured, so the only writer
// of each word is this thread: the reads see its own stores, plain
// (captured) or atomic, and race with nothing.
//
// Ordering argument. A commit or abort record is enqueued (assigning
// its log position under the log mutex) after the undo replay /
// validation but *before* the ownership records are released, so no
// conflicting transaction can obtain a later position with an earlier
// conflict order. A nested partial abort also releases orecs, so it
// emits its replayed undo range as its own record at the same point —
// deferring those words to the top-level record would let a foreign
// commit slip between the nested release and our top-level record and
// then be overwritten at replay. Thread-private residue (alloc block
// contents, stack scribbles) cannot race foreign commits and is
// covered once, by the top-level record.
//
// Commit durability: commitTop leaves its record's group-commit ack on
// the Thread and waits for nothing. Thread.Atomic waits for that ack
// before it returns, after ownership is released and limbo drained, so
// the fsync overlaps other threads' progress. Inside a Deferred scope
// the ack goes to the scope's caller instead, which overlaps the fsync
// with its own next transactions as well. Under NoFsync the log acks a
// record when it is appended — it is in the page cache then — so the
// ack is already done and neither waits. Aborts never wait. A record
// the log refuses gets a done ack whose Wait returns the log's sticky
// error, so a Deferred scope's caller sees it.

// DurableWords counts the words redo records carry, by the source
// emitDurable reads them from. Header words of allocation blocks count
// as Alloc.
type DurableWords struct {
	Undo       uint64 // undo-logged addresses, one one-word span each
	Alloc      uint64 // allocation-log blocks, carried whole
	AllocFreed uint64 // the part of Alloc in blocks the same transaction freed
	Stack      uint64 // the transaction-local stack region
}

// durWords is a thread's DurableWords, added to once per record and
// summed by Runtime.DurableWords while threads may run.
type durWords struct {
	undo, alloc, allocFreed, stack atomic.Uint64
}

// DurableWords sums every thread's record word counts.
func (rt *Runtime) DurableWords() DurableWords {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var w DurableWords
	for _, th := range rt.threads {
		w.Undo += th.dwords.undo.Load()
		w.Alloc += th.dwords.alloc.Load()
		w.AllocFreed += th.dwords.allocFreed.Load()
		w.Stack += th.dwords.stack.Load()
	}
	return w
}

// SetDurable attaches (or detaches, with nil) the redo log. Must be
// called before worker threads run. With no log attached every hook
// below is a single nil check.
func (rt *Runtime) SetDurable(l *wal.Log) { rt.durable = l }

// Durable returns the attached redo log, or nil.
func (rt *Runtime) Durable() *wal.Log { return rt.durable }

// Clock reads the global version clock (for checkpoint manifests).
func (rt *Runtime) Clock() uint64 { return rt.clock.Load() }

// SetClock restores the global version clock during recovery. The orec
// table of a recovered runtime is fresh (all version 0), so any clock
// at or above the highest logged version is consistent.
func (rt *Runtime) SetClock(v uint64) { rt.clock.Store(v) }

// StoreFloat writes a float64 word non-transactionally, journaling it
// like Store when durable.
func (th *Thread) StoreFloat(a mem.Addr, f float64) {
	th.Store(a, math.Float64bits(f))
}

// journal appends a KindNonTx record covering [addr, addr+n) with the
// space's current contents. Non-transactional mutations must journal
// eagerly, one record per operation: buffering per thread would break
// cross-thread ordering (a barrier-synchronized writer's reset must
// reach the log before other threads' subsequent commits).
func (th *Thread) journal(addr mem.Addr, n int) {
	rt := th.rt
	rec := &th.drec
	rec.Kind = wal.KindNonTx
	rec.Version = rt.clock.Load()
	rec.GlobalsNext = rt.space.GlobalsNext()
	rec.HeapNext = rt.space.HeapNext()
	if cap(th.dvals) < n {
		th.dvals = make([]uint64, 0, n)
	}
	vals := th.dvals[:n]
	for i := 0; i < n; i++ {
		vals[i] = rt.space.Load(addr + mem.Addr(i))
	}
	rec.Spans = append(rec.Spans[:0], wal.Span{Addr: uint64(addr), Vals: vals})
	rt.durable.Append(rec) // ack ignored: Sync/Close surface sticky errors
}

// durableDirty reports whether a transaction with no acquired orecs
// still changed memory: annotated-private writes (undo without locks),
// allocations, or stack growth.
func (tx *Tx) durableDirty() bool {
	return len(tx.undo) > 0 || len(tx.allocs) > 0 || tx.curSP != tx.startSP
}

// durableCommit emits the top-level commit record and returns the
// group-commit ack to wait on.
func (tx *Tx) durableCommit(version uint64) wal.Ack {
	return tx.emitDurable(wal.KindCommit, version, 0, 0, true)
}

// durableAbort emits the top-level abort record: the undo-restored
// values plus the thread-private residue of the failed attempt.
func (tx *Tx) durableAbort() {
	tx.emitDurable(wal.KindAbort, tx.th.rt.clock.Load(), 0, 0, true)
}

// durableNestedAbort emits the partial abort's record: the replayed
// undo range plus the scope's allocation blocks, whose zeroed contents
// and headers vanish from tx.allocs when the scope truncates. Called
// after the replay and before the scope's ownership records are
// released.
func (tx *Tx) durableNestedAbort(undoFrom, allocFrom int) {
	if undoFrom >= len(tx.undo) && allocFrom >= len(tx.allocs) {
		return
	}
	tx.emitDurable(wal.KindAbort, tx.th.rt.clock.Load(), undoFrom, allocFrom, false)
}

// emitDurable builds and enqueues one record covering the undo entries
// at or above undoFrom (current space values) and the allocation-log
// blocks at or above allocFrom — dead ones included: an in-transaction
// free changes no words, and if the block was recycled by a later Alloc
// of the same transaction both spans read the same current contents.
// With withStack set (top-level records) it also dumps the stack region
// [curSP, startSP). Values are carved out of one pre-sized scratch
// buffer so the span slices stay valid while the log copies them.
func (tx *Tx) emitDurable(kind wal.Kind, version uint64, undoFrom, allocFrom int, withStack bool) wal.Ack {
	th := tx.th
	rt := th.rt
	space := rt.space
	rec := &th.drec
	rec.Kind = kind
	rec.Version = version
	rec.GlobalsNext = space.GlobalsNext()
	rec.HeapNext = space.HeapNext()

	undoWords := len(tx.undo) - undoFrom
	allocWords, freedWords := 0, 0
	for i := allocFrom; i < len(tx.allocs); i++ {
		n := tx.allocs[i].size + 1 // header word at addr-1
		allocWords += n
		if tx.allocs[i].dead {
			freedWords += n
		}
	}
	stackWords := 0
	if withStack {
		stackWords = int(tx.startSP - tx.curSP)
	}
	need := undoWords + allocWords + stackWords
	th.dwords.undo.Add(uint64(undoWords))
	th.dwords.alloc.Add(uint64(allocWords))
	th.dwords.allocFreed.Add(uint64(freedWords))
	th.dwords.stack.Add(uint64(stackWords))
	if cap(th.dvals) < need {
		th.dvals = make([]uint64, 0, need)
	}
	vals := th.dvals[:0]
	spans := rec.Spans[:0]

	carve := func(addr mem.Addr, n int) {
		start := len(vals)
		for i := 0; i < n; i++ {
			vals = append(vals, space.Load(addr+mem.Addr(i)))
		}
		spans = append(spans, wal.Span{Addr: uint64(addr), Vals: vals[start:len(vals):len(vals)]})
	}

	for i := undoFrom; i < len(tx.undo); i++ {
		carve(tx.undo[i].addr, 1)
	}
	for i := allocFrom; i < len(tx.allocs); i++ {
		a := &tx.allocs[i]
		carve(a.addr-1, a.size+1)
	}
	if stackWords > 0 {
		carve(tx.curSP, stackWords)
	}
	rec.Spans = spans
	th.dvals = vals[:0]
	ack, _ := rt.durable.Append(rec) // a refused record's ack returns the error
	return ack
}
