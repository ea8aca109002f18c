package stm

import "repro/internal/mem"

// This file is the log layer of the transaction: the read set with its
// read-after-read filter, the write (lock) set, the undo log with its
// write-after-write filter, the
// allocation/free logs, and the capture-log maintenance behind the
// paper's is_captured() probe. barrier.go and engine.go call into these
// from the hot paths; lifecycle.go replays and truncates them.

type readEntry struct {
	oi uint64 // orec index
	v  uint64 // orec word observed at read time
}

// writeEntry records one acquired orec, in acquisition order so aborts
// can release exactly the locks a savepoint scope took, with the orec
// word the lock replaced. The lock word carries the entry's index in
// the write set (orecLockWord), so validate finds prev in O(1).
type writeEntry struct {
	oi   uint64 // orec index
	prev uint64 // orec word before the lock
}

type undoEntry struct {
	addr mem.Addr
	val  uint64
}

type allocRec struct {
	addr  mem.Addr
	size  int
	depth int32
	dead  bool // freed again within the same transaction
}

type savepoint struct {
	read, write, undo int
	alloc, free       int
	sp                mem.Addr
	runs              [2]uint64 // the nursery runs' spans
}

// nurseryRun is a range [lo, lo+span) of blocks one transaction
// allocated back to back: a run starts at a block's payload and grows
// whenever the next block's header sits exactly at its end, so it holds
// those blocks' payloads and the headers between them and nothing else.
// lo is fixed while span > 0, so restoring a span undoes the growth
// since a savepoint.
type nurseryRun struct {
	lo   mem.Addr
	span uint64
}

const wawSlots = 256 // power of two

// wawEntry remembers where in the undo log an address was last logged
// (undoIdx), so the skip test can verify the entry is still live and
// would actually be replayed by any abort affecting the new write.
type wawEntry struct {
	addr    mem.Addr
	epoch   uint64
	undoIdx int
}

// The read-after-read filter (logRead): rarSlots direct-mapped slots,
// consulted once the read set holds rarFrom entries — 32 KiB, an L1
// data cache's worth.
const (
	rarSlots = 512 // power of two
	rarFrom  = 2048
)

// logRead appends (oi, v) to the read set unless the read-after-read
// filter shows that an identical entry is already live in it — the
// read-side twin of logUndo's WAW check (Harris et al.'s runtime log
// filtering). Thread.rar[oi&(rarSlots-1)] holds the read-set position
// + 1 of the last entry logged for an orec in that slot (0 = empty).
//
// The filter engages once the read set holds rarFrom entries, so only
// long transactions use it. Whether a read repeats one already logged
// is data the branch predictor cannot learn: on an irregular re-read
// pattern the filter test costs ≈ 3 ns per read more than the plain
// append (BenchmarkBarrierReadFull/mixed). Filtering every transaction
// cost the srv-tmkv request stream ≈ 10 %, and from 512 entries on
// still cost kv-serve's merged batches (≈ 1 000 entries) 14 %; a log
// that fits in L1 gains nothing from being shorter. Long transactions
// are where the log costs: its memory and the validate/extend walks
// over it grow with every read (vacation's Validate logs ≈ 609 k
// entries for 141 k distinct ones).
//
// The content compare is the whole safety argument, so the filter
// needs no epoch and no savepoint bookkeeping: a position past the end
// of the log (truncated by abortNested, or left by an earlier, longer
// transaction) fails the bound; a live position holding anything but
// exactly (oi, v) fails the compare — entries abortNested repaired to
// a fresh version included, which a re-read then matches only if it
// observes that same version. A skipped read is thus always an exact
// duplicate of a live entry, and validate/extend decide exactly as
// they would on the unfiltered log. (A position past 1<<32 wraps,
// which can only point the slot at some other live entry, where the
// compare still guards.)
func (tx *Tx) logRead(oi, v uint64) {
	if len(tx.readset) >= rarFrom && tx.loggedAlready(oi, v) {
		return
	}
	tx.readset = append(tx.readset, readEntry{oi, v})
}

// loggedAlready is logRead's filter test: it reports whether (oi, v) is
// live in the read set, and otherwise points the slot at the position
// the entry is about to take. Out of line, so logRead stays inlinable
// and a short transaction's read pays one compare for the filter.
//
//go:noinline
func (tx *Tx) loggedAlready(oi, v uint64) bool {
	th := tx.th
	if th.rar == nil {
		th.rar = new([rarSlots]uint32)
	}
	n := len(tx.readset)
	s := &th.rar[oi&(rarSlots-1)]
	if p := uint(*s) - 1; p < uint(n) && tx.readset[p] == (readEntry{oi, v}) {
		// A branch, not statInc: adding statInc's zero would still store
		// to the stats line on every hit of a perf engine.
		if tx.keepStats {
			th.stats.ReadRARSkips++
		}
		return true
	}
	*s = uint32(n + 1)
	return false
}

// validate checks every read-set entry: the orec must be unchanged, or
// locked by us with its pre-acquisition version matching what we read.
func (tx *Tx) validate(rt *Runtime) bool {
	for i := range tx.readset {
		re := &tx.readset[i]
		cur := rt.orecs[re.oi].Load()
		if cur == re.v {
			continue
		}
		if tx.prevOrecWord(cur) == re.v {
			continue
		}
		return false
	}
	return true
}

// prevOrecWord returns the orec word our lock replaced, given the
// orec's current word w, or ^0 unless w is our lock. The lock word
// indexes our write set, so validation is O(reads), with no lookup
// structure to fill at lock time or trim at partial abort.
func (tx *Tx) prevOrecWord(w uint64) uint64 {
	if orecLocked(w) && orecOwner(w) == tx.th.id {
		return tx.writes[orecWriteIdx(w)].prev
	}
	return ^uint64(0)
}

// --- Transactional allocation (Sec. 3.1.2's extended allocator) ---

// Alloc allocates n words inside the transaction and records the block
// in a nursery run or the allocation log. The memory is captured: until
// commit it is invisible to every other transaction.
func (tx *Tx) Alloc(n int) mem.Addr {
	p := tx.th.alloc.Alloc(n)
	size := tx.th.alloc.BlockSize(p)
	tx.allocs = append(tx.allocs, allocRec{addr: p, size: size, depth: tx.depth})
	tx.insertIntoLogs(p, size)
	tx.th.stats.TxAllocs++
	return p
}

// Free frees a block inside the transaction. A block allocated by this
// transaction at the current nesting depth is reclaimed immediately
// (it never escaped and cannot be resurrected by a partial abort); a
// block allocated at an outer depth or before the transaction is freed
// only when the transaction commits, so aborts can undo the free.
func (tx *Tx) Free(p mem.Addr) {
	if p == mem.Nil {
		return
	}
	tx.th.stats.TxFrees++
	for i := len(tx.allocs) - 1; i >= 0; i-- {
		a := &tx.allocs[i]
		if a.addr == p && !a.dead {
			if a.depth == tx.depth {
				a.dead = true
				tx.removeFromLogs(p, a.size)
				tx.th.alloc.Free(p)
				return
			}
			break // allocated at an outer depth: defer
		}
	}
	tx.frees = append(tx.frees, p)
}

// insertIntoLogs records the block [p, p+size) for the heap capture
// test, in a nursery run when one takes it and in the allocation log
// otherwise. The classifier's log takes every block.
func (tx *Tx) insertIntoLogs(p mem.Addr, size int) {
	if tx.alog != nil {
		if !tx.takeIntoRun(p, size) {
			tx.alog.Insert(p, p+mem.Addr(size))
			lo, hi := p, p+mem.Addr(size)
			if tx.allocSpan != 0 {
				lo, hi = min(lo, tx.allocLo), max(hi, tx.allocLo+mem.Addr(tx.allocSpan))
			}
			tx.allocLo, tx.allocSpan = lo, uint64(hi-lo)
		}
	}
	if tx.clog != nil {
		tx.clog.Insert(p, p+mem.Addr(size))
	}
}

// takeIntoRun covers the block [p, p+size) with a nursery run if one
// can take it: the first empty run starts at it, a run whose end is
// the block's header grows over it, and a run that already holds it —
// a block this transaction freed and took back from its free list —
// keeps it.
func (tx *Tx) takeIntoRun(p mem.Addr, size int) bool {
	for i := range tx.nursery {
		r := &tx.nursery[i]
		switch {
		case r.span == 0:
			r.lo, r.span = p, uint64(size)
			return true
		case r.lo+mem.Addr(r.span) == p-1:
			r.span = uint64(p-r.lo) + uint64(size)
			return true
		case uint64(p-r.lo) < r.span:
			return true
		}
	}
	return false
}

// removeFromLogs drops a freed block from the logs. A live block is in
// a run or in the allocation log, never both: a run only grows over
// blocks allocated after it. A freed block stays in its run until the
// transaction ends or its scope rolls back: it is on this thread's free
// list, where no other thread can take it (see the mem package doc),
// and taking it back in this transaction makes it captured anyway.
func (tx *Tx) removeFromLogs(p mem.Addr, size int) {
	if tx.alog != nil && !tx.inNursery(p) {
		tx.alog.Remove(p, p+mem.Addr(size))
	}
	if tx.clog != nil {
		tx.clog.Remove(p, p+mem.Addr(size))
	}
}

// inNursery is the heap capture test's two compares: a lies in one of
// the transaction's nursery runs.
func (tx *Tx) inNursery(a mem.Addr) bool {
	return uint64(a-tx.nursery[0].lo) < tx.nursery[0].span || uint64(a-tx.nursery[1].lo) < tx.nursery[1].span
}

// inAllocRange guards every allocation-log probe: a lies in the
// bounding range of the blocks inserted into the log since finish reset
// it. Free and partial abort never narrow it, so false proves a is in
// no block of the log.
func (tx *Tx) inAllocRange(a mem.Addr) bool {
	return uint64(a-tx.allocLo) < tx.allocSpan
}

// alogContains is the is_captured() heap probe of the paper's Fig. 2
// for the interpreting chain; the perf engines spell the same tests out
// inline (engine.go).
func (tx *Tx) alogContains(a mem.Addr) bool {
	return tx.inNursery(a) || (tx.inAllocRange(a) && tx.alog.Contains(a, 1))
}

// StackAlloc allocates an n-word frame on the transaction-local stack.
// The frame lives until the enclosing top-level transaction ends and
// is reclaimed automatically (Fig. 3: the region between start_sp and
// the current stack pointer).
func (tx *Tx) StackAlloc(n int) mem.Addr {
	f := tx.th.stack.Push(n)
	tx.curSP = f
	return f
}

// onTxStack is the paper's Fig. 4 range check: the address lies in the
// stack region grown since transaction begin.
func (tx *Tx) onTxStack(a mem.Addr) bool {
	return a >= tx.curSP && a < tx.startSP
}

// logUndo records the old value of a, unless the write-after-write
// filter shows a live undo entry already covers it — the baseline's
// cheap WAW check that the paper credits for yada.
//
// "Covers" is subtle under closed nesting with partial abort: the
// prior entry must (a) still be in the log (not truncated by a partial
// abort and not overwritten after truncation), and (b) lie at or after
// the innermost savepoint, so every abort that could undo the new
// write replays it. Entries from an outer scope fail (b): a partial
// abort of the current nested transaction would not replay them.
func (tx *Tx) logUndo(a mem.Addr) {
	if tx.useWAW {
		s := &tx.waw[(uint64(a)*0x9E3779B97F4A7C15>>33)&(wawSlots-1)]
		if s.addr == a && s.epoch == tx.epoch &&
			s.undoIdx < len(tx.undo) && tx.undo[s.undoIdx].addr == a &&
			s.undoIdx >= tx.undoScopeBase() {
			tx.th.stats.WriteWAWSkips += tx.statInc()
			return
		}
		s.addr = a
		s.epoch = tx.epoch
		s.undoIdx = len(tx.undo)
	}
	tx.undo = append(tx.undo, undoEntry{a, tx.th.rt.space.Load(a)})
}

// undoScopeBase returns the undo-log position of the innermost
// savepoint (0 at top level).
func (tx *Tx) undoScopeBase() int {
	if len(tx.saves) == 0 {
		return 0
	}
	return tx.saves[len(tx.saves)-1].undo
}
