package stm

// Property-based tests: randomized operation sequences executed
// through the STM must behave exactly like a reference memory model,
// under every optimization configuration.

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

// TestPropertySerialEquivalence drives one thread with random
// transactional programs (loads, stores, allocations, frees, nested
// blocks, user aborts) and compares every load and the final memory
// against a Go-map reference executed with the same decisions.
func TestPropertySerialEquivalence(t *testing.T) {
	cfgs := allConfigs()
	f := func(seed int64, nops uint8) bool {
		for _, cfg := range cfgs {
			if !serialEquivalent(t, cfg, seed, int(nops)) {
				t.Logf("config %s failed (seed %d, %d ops)", cfg.Name, seed, nops)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func serialEquivalent(t *testing.T, cfg OptConfig, seed int64, nops int) bool {
	rng := rand.New(rand.NewSource(seed))
	rt := newRT(cfg)
	th := rt.Thread(0)
	base := rt.Space().AllocGlobal(32)
	ref := map[mem.Addr]uint64{} // reference for the global slots
	var refTx map[mem.Addr]uint64

	ok := true
	for op := 0; op < nops; op++ {
		abort := rng.Intn(4) == 0
		nsteps := 1 + rng.Intn(8)
		// Pre-draw all randomness so retries (which cannot happen
		// single-threaded, but still) replay identically.
		type step struct {
			kind int
			slot mem.Addr
			val  uint64
		}
		steps := make([]step, nsteps)
		for i := range steps {
			steps[i] = step{rng.Intn(4), mem.Addr(rng.Intn(32)), rng.Uint64() % 1000}
		}
		refTx = map[mem.Addr]uint64{}
		for k, v := range ref {
			refTx[k] = v
		}
		committed := th.Atomic(func(tx *Tx) {
			var scratch mem.Addr
			for _, s := range steps {
				switch s.kind {
				case 0: // shared store
					tx.Store(base+s.slot, s.val, AccShared)
					refTx[s.slot] = s.val
				case 1: // shared load must match reference
					got := tx.Load(base+s.slot, AccShared)
					if got != refTx[s.slot] {
						ok = false
					}
				case 2: // captured scratch allocation
					scratch = tx.Alloc(2)
					tx.Store(scratch, s.val, AccFresh)
					if tx.Load(scratch, AccFresh) != s.val {
						ok = false
					}
				case 3:
					if scratch != mem.Nil {
						tx.Free(scratch)
						scratch = mem.Nil
					}
				}
			}
			if abort {
				tx.UserAbort()
			}
		})
		if committed != !abort {
			t.Logf("committed=%v abort=%v", committed, abort)
			return false
		}
		if committed {
			ref = refTx
		}
		// Memory must equal the reference between transactions.
		for slot, want := range ref {
			if got := rt.Space().Load(base + slot); got != want {
				t.Logf("slot %d = %d, want %d", slot, got, want)
				return false
			}
		}
	}
	rt.Validate()
	return ok
}

// TestPropertyNestedRollback randomizes nesting structure: inner
// transactions may abort; the reference tracks the savepoint
// semantics. A partial abort bumps the released ownership records
// (required for ABA safety against zombie readers), which can force
// the *outer* transaction to re-validate and retry — so the body
// rebuilds its reference model from scratch on every attempt, exactly
// like the register checkpointing real transactional code needs.
func TestPropertyNestedRollback(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rt := newRT(RuntimeAll())
		th := rt.Thread(0)
		base := rt.Space().AllocGlobal(8)

		// Pre-draw all decisions so retries replay the same blocks.
		type blk struct {
			slot       mem.Addr
			val        uint64
			abortInner bool
		}
		blocks := make([]blk, 3)
		for i := range blocks {
			blocks[i] = blk{mem.Addr(rng.Intn(8)), rng.Uint64() % 100, rng.Intn(2) == 0}
		}

		var ref []uint64
		mismatch := false
		th.Atomic(func(tx *Tx) {
			ref = make([]uint64, 8) // reset per attempt (retry-safe)
			for _, b := range blocks {
				committed := th.Atomic(func(tx2 *Tx) {
					tx2.Store(base+b.slot, b.val, AccShared)
					if b.abortInner {
						tx2.UserAbort()
					}
				})
				if committed != !b.abortInner {
					mismatch = true
				}
				if committed {
					ref[b.slot] = b.val
				}
				// Within the outer transaction, reads see the nested
				// outcome.
				for i := 0; i < 8; i++ {
					if got := tx.Load(base+mem.Addr(i), AccShared); got != ref[i] {
						t.Logf("nested slot %d = %d, want %d", i, got, ref[i])
						mismatch = true
					}
				}
			}
		})
		if mismatch {
			return false
		}
		for i := 0; i < 8; i++ {
			if rt.Space().Load(base+mem.Addr(i)) != ref[i] {
				return false
			}
		}
		rt.Validate()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyOrecEncoding checks the ownership-record word encoding
// round-trips for arbitrary versions and for every owner and write-set
// index a lock word holds: owners fill the ownerBits (uint16), and New
// rejects a MaxThreads whose thread ids would not fit.
func TestPropertyOrecEncoding(t *testing.T) {
	if err := quick.Check(func(id uint16, widx uint32, version uint32) bool {
		lw := orecLockWord(int(id), int(widx))
		if !orecLocked(lw) || orecOwner(lw) != int(id) || orecWriteIdx(lw) != int(widx) {
			return false
		}
		vw := uint64(version) << 1
		return !orecLocked(vw) && orecVersion(vw) == uint64(version)
	}, nil); err != nil {
		t.Error(err)
	}
	small := mem.Config{GlobalWords: 8, HeapWords: 64, StackWords: 1}
	small.MaxThreads = 1 << ownerBits
	New(small, Baseline()) // the largest thread id fits
	small.MaxThreads++
	defer func() {
		if recover() == nil {
			t.Errorf("New accepted MaxThreads %d, past the %d owners a lock word holds", small.MaxThreads, 1<<ownerBits)
		}
	}()
	New(small, Baseline())
}

// TestPropertyOrecWindowOneToOne: the orecs are in address order, so
// any window of 1<<DefaultOrecBits consecutive lines maps one-to-one
// onto the table, and the words of one line share its orec.
func TestPropertyOrecWindowOneToOne(t *testing.T) {
	rt := newRT(Baseline())
	const lines = 1 << DefaultOrecBits
	if err := quick.Check(func(start uint32, word uint8) bool {
		seen := make([]bool, len(rt.orecs))
		base := mem.Addr(start) * mem.LineWords
		for l := mem.Addr(0); l < lines; l++ {
			a := base + l*mem.LineWords
			oi := rt.orecIndex(a)
			if seen[oi] || rt.orecIndex(a+mem.Addr(word%mem.LineWords)) != oi {
				return false
			}
			seen[oi] = true
		}
		return true
	}, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

// TestPropertyWAWFilterNeverLosesUndo: whatever the write pattern, an
// aborted transaction must restore the exact pre-transaction state.
func TestPropertyWAWFilterNeverLosesUndo(t *testing.T) {
	f := func(seed int64, pattern []uint8) bool {
		if len(pattern) == 0 {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		rt := newRT(Baseline())
		th := rt.Thread(0)
		base := rt.Space().AllocGlobal(16)
		before := make([]uint64, 16)
		for i := range before {
			before[i] = rng.Uint64()
			rt.Space().Store(base+mem.Addr(i), before[i])
		}
		th.Atomic(func(tx *Tx) {
			for _, p := range pattern {
				slot := mem.Addr(p % 16)
				tx.Store(base+slot, rng.Uint64(), AccShared)
			}
			tx.UserAbort()
		})
		for i := range before {
			if rt.Space().Load(base+mem.Addr(i)) != before[i] {
				return false
			}
		}
		rt.Validate()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertyCapturedWritesInvisibleUntilCommit: a concurrent
// observer never sees a captured block's contents before the
// publishing transaction commits.
func TestPropertyCapturedWritesInvisibleUntilCommit(t *testing.T) {
	rt := newRT(RuntimeAll())
	head := rt.Space().AllocGlobal(1)
	writer := rt.Thread(0)
	reader := rt.Thread(1)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 300; i++ {
			writer.Atomic(func(tx *Tx) {
				p := tx.Alloc(2)
				tx.Store(p, uint64(i)+1, AccFresh)   // payload
				tx.Store(p+1, uint64(i)+1, AccFresh) // mirror
				tx.StoreAddr(head, p, AccShared)     // publish
			})
		}
	}()
	for {
		select {
		case <-done:
			rt.Validate()
			return
		default:
		}
		reader.Atomic(func(tx *Tx) {
			p := tx.LoadAddr(head, AccShared)
			if p == mem.Nil {
				return
			}
			a := tx.Load(p, AccShared)
			b := tx.Load(p+1, AccShared)
			if a != b || a == 0 {
				t.Errorf("observed half-initialized block: %d vs %d", a, b)
			}
		})
	}
}
