package stm

import (
	"math"

	"repro/internal/mem"
)

// This file is the barrier layer: the Load/Store entry points that
// dispatch into the engine compiled for the phase's profile (engine.go),
// the interpreting chain — the one chain that keeps statistics, serving
// as both the "generic" reference and the "counting" engine — and the
// full-barrier slow paths every engine bottoms out in, which is also
// where read-mostly mode lives. The fast paths of the performance
// engines live in engine.go.

// Load performs a transactional read of the word at a. ac carries the
// access-site metadata (provenance for compiler elision; whether the
// original program hand-instrumented the access). The real work happens
// in the engine function selected once per Runtime, so the hot path
// re-tests no configuration state.
func (tx *Tx) Load(a mem.Addr, ac Acc) uint64 {
	return tx.load(tx, a, ac)
}

// Store performs a transactional write of the word at a.
func (tx *Tx) Store(a mem.Addr, val uint64, ac Acc) {
	tx.store(tx, a, val, ac)
}

// --- The interpreting chain ---
//
// loadGeneric/storeGeneric interpret the whole optimization profile at
// runtime: every cached configuration boolean is re-tested per access,
// and every statistics update is guarded by keepStats. Engine "counting"
// runs it with keepStats on (barrier totals, the Fig. 8 classification,
// per-mechanism elision counters); engine "generic" is the same pair
// forced with WithEngine, so the differentials compare each perf
// specialization against the chain that also produces the reported
// counters.

func (tx *Tx) loadGeneric(a mem.Addr, ac Acc) uint64 {
	th := tx.th
	if tx.keepStats {
		st := th.stats
		st.ReadTotal++
		if ac.Manual {
			st.ReadManual++
		}
		if tx.counting {
			if tx.onTxStack(a) {
				st.ReadCapStack++
			} else if tx.clog.Contains(a, 1) {
				st.ReadCapHeap++
			}
		}
	}
	if tx.compiler && StaticElide(ac.Prov) {
		if tx.verify {
			tx.verifyCaptured(a)
		}
		th.stats.ReadElStatic += tx.statInc()
		return th.rt.space.Load(a)
	}
	if tx.skipShared && ac.Prov == ProvShared {
		th.stats.ReadSkipShared += tx.statInc()
		th.stats.ReadFull += tx.statInc()
		return tx.readFull(a)
	}
	if tx.readStack && tx.onTxStack(a) {
		th.stats.ReadElStack += tx.statInc()
		return th.rt.space.Load(a)
	}
	if tx.readHeap && tx.alogContains(a) {
		th.stats.ReadElHeap += tx.statInc()
		return th.rt.space.Load(a)
	}
	if tx.annotations && th.priv.Contains(a, 1) {
		th.stats.ReadElPriv += tx.statInc()
		return th.rt.space.Load(a)
	}
	th.stats.ReadFull += tx.statInc()
	return tx.readFull(a)
}

func (tx *Tx) storeGeneric(a mem.Addr, val uint64, ac Acc) {
	th := tx.th
	if tx.keepStats {
		st := th.stats
		st.WriteTotal++
		if ac.Manual {
			st.WriteManual++
		}
		if tx.counting {
			if tx.onTxStack(a) {
				st.WriteCapStack++
			} else if tx.clog.Contains(a, 1) {
				st.WriteCapHeap++
			}
		}
	}
	if tx.compiler && StaticElide(ac.Prov) {
		if tx.verify {
			tx.verifyCaptured(a)
		}
		th.stats.WriteElStatic += tx.statInc()
		tx.storeCaptured(a, val)
		return
	}
	if tx.skipShared && ac.Prov == ProvShared {
		th.stats.WriteSkipShared += tx.statInc()
		th.stats.WriteFull += tx.statInc()
		tx.writeFull(a, val)
		return
	}
	if tx.writeStack && tx.onTxStack(a) {
		th.stats.WriteElStack += tx.statInc()
		tx.storeCaptured(a, val)
		return
	}
	if tx.writeHeap && tx.alogContains(a) {
		th.stats.WriteElHeap += tx.statInc()
		tx.storeCaptured(a, val)
		return
	}
	if tx.annotations && th.priv.Contains(a, 1) {
		// Annotated thread-local data can hold live-in values, so it
		// keeps undo logging but skips locking (Sec. 2.2.2).
		th.stats.WriteElPriv += tx.statInc()
		tx.logUndo(a)
		th.rt.space.Store(a, val)
		return
	}
	th.stats.WriteFull += tx.statInc()
	tx.writeFull(a, val)
}

// statInc returns 1 when statistics are kept, else 0, letting the
// interpreting chain stay branch-light under PerfMode.
func (tx *Tx) statInc() uint64 {
	if tx.keepStats {
		return 1
	}
	return 0
}

// --- Full-barrier slow paths (shared by every engine) ---

// readFull is the full read barrier. In read-mostly mode (tx.unlogged)
// it is the TL2 read-only load: the orec is validated against the
// attempt's snapshot rv at read time and NO read-set entry is appended,
// so a transaction that never upgrades commits with no validation loop,
// no clock bump, and no log traffic at all. The price is that the read
// set cannot vouch for these reads later: extension and commit-time
// validation for attempts containing unlogged reads are gated in
// lifecycle.go (extend/commitTop) on proof that no other thread's
// commit intervened. (An unlogged attempt holds no orecs, so the owner
// check below cannot fire for it.)
func (tx *Tx) readFull(a mem.Addr) uint64 {
	rt := tx.th.rt
	oi := rt.orecIndex(a)
	for {
		v1 := rt.orecs[oi].Load()
		if orecLocked(v1) {
			if orecOwner(v1) == tx.th.id {
				return rt.space.Load(a) // read-after-write, in place
			}
			tx.conflictAt(oi, v1)
		}
		if orecVersion(v1) > tx.rv {
			tx.extend()
			continue
		}
		val := rt.space.Load(a)
		if v2 := rt.orecs[oi].Load(); v2 != v1 {
			tx.conflictAt(oi, v2)
		}
		if !tx.unlogged {
			tx.logRead(oi, v1)
		}
		return val
	}
}

// upgrade is the read-mostly mode's one-time in-flight upgrade, taken by
// the first store that needs the full write barrier: the attempt leaves
// unlogged mode, and the write machinery (write/undo logs, lockedPrev)
// then materializes lazily as writeFull touches it. Stores the chain
// resolves without an orec — captured memory, annotated private blocks —
// never get here, so they leave the attempt unlogged.
//
// The loads before this point were never logged, so continuing in-flight
// is sound only when nothing has committed since the attempt's snapshot:
// then every unlogged read is provably still valid. The clock==rv test
// proves exactly that. Otherwise the attempt restarts with upNext set,
// and beginTop runs the retry logged from its first access so normal
// validation applies. finish() clears the mode bits, so a later
// transaction starts unlogged again; that keeps the upgrade correct
// under retry by construction.
//
// Kept out of line: inlined into writeFull, this once-per-transaction
// body made every full write pay for it (BenchmarkBarrierWriteFull/perf
// 16.0 → 17.7 ns, 6 interleaved pairs; 16.1 ns out of line).
//
//go:noinline
func (tx *Tx) upgrade() {
	tx.th.stats.Upgrades++
	if tx.th.rt.clock.Load() != tx.rv {
		tx.upNext = true
		tx.conflict()
	}
	tx.unlogged = false
	tx.upgraded = true
}

// storeCaptured writes captured memory directly. At nesting depth > 1
// the location may be live-in for the nested transaction even though
// it is transaction-local to the outer one, so partial abort requires
// an undo entry (Sec. 2.2.1); at top level captured memory is dead on
// abort and skips undo logging entirely.
func (tx *Tx) storeCaptured(a mem.Addr, val uint64) {
	if tx.depth > 1 {
		tx.logUndo(a)
	}
	tx.th.rt.space.Store(a, val)
}

func (tx *Tx) writeFull(a mem.Addr, val uint64) {
	if tx.unlogged {
		tx.upgrade()
	}
	rt := tx.th.rt
	oi := rt.orecIndex(a)
	for {
		v := rt.orecs[oi].Load()
		if orecLocked(v) {
			if orecOwner(v) == tx.th.id {
				break
			}
			tx.conflictAt(oi, v)
		}
		if orecVersion(v) > tx.rv {
			tx.extend()
			continue
		}
		if rt.orecs[oi].CompareAndSwap(v, orecLockWord(tx.th.id)) {
			tx.writes = append(tx.writes, writeEntry{oi})
			if tx.lockedPrev == nil {
				// Allocated on the thread's first lock ever (then reused
				// via clear in finish), not per Tx: transactions that
				// never lock an orec never pay for the map.
				tx.lockedPrev = make(map[uint64]uint64, 8)
			}
			tx.lockedPrev[oi] = v
			break
		}
		tx.conflictAt(oi, rt.orecs[oi].Load())
	}
	tx.logUndo(a)
	rt.space.Store(a, val)
}

// --- Typed convenience accessors ---

// LoadFloat reads a float64 transactionally.
func (tx *Tx) LoadFloat(a mem.Addr, ac Acc) float64 {
	return math.Float64frombits(tx.Load(a, ac))
}

// StoreFloat writes a float64 transactionally.
func (tx *Tx) StoreFloat(a mem.Addr, f float64, ac Acc) {
	tx.Store(a, math.Float64bits(f), ac)
}

// LoadAddr reads a simulated pointer transactionally.
func (tx *Tx) LoadAddr(a mem.Addr, ac Acc) mem.Addr {
	return mem.Addr(tx.Load(a, ac))
}

// StoreAddr writes a simulated pointer transactionally.
func (tx *Tx) StoreAddr(a mem.Addr, p mem.Addr, ac Acc) {
	tx.Store(a, uint64(p), ac)
}
