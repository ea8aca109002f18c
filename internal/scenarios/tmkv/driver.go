package tmkv

import (
	"fmt"
	"sync"

	"repro/internal/mem"
	"repro/internal/prng"
	"repro/internal/scenarios/dist"
	"repro/internal/stm"
	"repro/internal/txlib"
	"repro/tm"
)

// Config describes one tmkv workload mix. Percentages must sum to
// 100; Keys must be a power of two.
type Config struct {
	Name string
	Keys int // key-space size (power of two)
	Ops  int // total client transactions across all threads

	KeyWords             int // probe-key length in words (multi-word compares)
	MinBlocks, MaxBlocks int // value size range, in BlockWords blocks
	MaxVersions          int // version-chain length before trimming

	ReadPct, UpdatePct, InsertPct, DeletePct, ScanPct int
	ScanLimit                                         int

	Zipf  bool    // Zipfian (true) or uniform (false) key choice
	Theta float64 // Zipfian skew, in (0, 1)

	// Phased makes the served adapter tag each request with its capture
	// regime (reads/scans → PhaseScan, mutations → PhasePublish). Tagged
	// items only merge with same-phase items, so this trades merge width
	// for per-batch engine specialization — right for skewed mixes where
	// one phase dominates, wrong for balanced ones. The self-driving
	// workload always hints (hints are free without tm.WithPhases).
	Phased bool

	PreloadPct int // portion of the key space populated by Setup
	Seed       uint64
}

// Mixed returns the registered "tmkv" configuration: an OLTP-like
// blend over a Zipfian key space.
func Mixed() Config {
	return Config{Name: "tmkv", Keys: 4096, Ops: 16384,
		KeyWords: 4, MinBlocks: 1, MaxBlocks: 4, MaxVersions: 2,
		ReadPct: 50, UpdatePct: 20, InsertPct: 10, DeletePct: 10, ScanPct: 10,
		ScanLimit: 16, Zipf: true, Theta: 0.85, PreloadPct: 50, Seed: 1}
}

// ReadHeavy returns "tmkv-read": mostly checksum-verified point reads
// over a hotter Zipfian distribution.
func ReadHeavy() Config {
	return Config{Name: "tmkv-read", Keys: 4096, Ops: 16384,
		KeyWords: 4, MinBlocks: 1, MaxBlocks: 4, MaxVersions: 2,
		ReadPct: 80, UpdatePct: 8, InsertPct: 4, DeletePct: 4, ScanPct: 4,
		ScanLimit: 16, Zipf: true, Theta: 0.95, PreloadPct: 75, Seed: 2}
}

// WriteHeavy returns "tmkv-write": allocation-dominated churn over a
// uniform key space — the mix where captured-memory elision has the
// most barriers to remove.
func WriteHeavy() Config {
	return Config{Name: "tmkv-write", Keys: 4096, Ops: 16384,
		KeyWords: 4, MinBlocks: 2, MaxBlocks: 6, MaxVersions: 2,
		ReadPct: 10, UpdatePct: 40, InsertPct: 25, DeletePct: 20, ScanPct: 5,
		ScanLimit: 8, Zipf: false, PreloadPct: 50, Seed: 3}
}

// Small returns a fast fixed-seed configuration for tests and golden
// reports; it is not registered.
func Small() Config {
	return Config{Name: "tmkv-small", Keys: 256, Ops: 1024,
		KeyWords: 3, MinBlocks: 1, MaxBlocks: 3, MaxVersions: 2,
		ReadPct: 40, UpdatePct: 25, InsertPct: 15, DeletePct: 10, ScanPct: 10,
		ScanLimit: 8, Zipf: true, Theta: 0.9, PreloadPct: 50, Seed: 7}
}

func init() {
	for _, reg := range []struct {
		cfg  Config
		desc string
	}{
		{Mixed(), "transactional KV/object store: mixed OLTP blend with content-hash dedup"},
		{ReadHeavy(), "tmkv read heavy: checksum-verified point reads over a hot key set"},
		{WriteHeavy(), "tmkv write heavy: allocation-dominated churn, peak elision headroom"},
	} {
		cfg := reg.cfg
		tm.RegisterWorkloadDesc(cfg.Name, reg.desc, func() tm.Workload { return New(cfg) })
	}
}

// threadStats counts the committed effects of one worker, applied to
// the Go side only after the transaction commits.
type threadStats struct {
	inserts, deletes uint64 // successful ones
	reads, updates   uint64
	misses, scans    uint64
	badSum           uint64 // checksum mismatches seen by reads
}

// B is one tmkv run. It implements tm.Workload; like the STAMP ports
// it is written against the low-level engine via Runtime.Unwrap.
type B struct {
	cfg     Config
	store   Store
	dist    *dist.Zipf
	preload int
	perTh   []threadStats
}

// New creates a workload instance from a configuration (instances are
// single use, like every registered workload).
func New(cfg Config) *B {
	if cfg.Keys&(cfg.Keys-1) != 0 || cfg.Keys == 0 {
		panic("tmkv: Keys must be a power of two")
	}
	if p := cfg.ReadPct + cfg.UpdatePct + cfg.InsertPct + cfg.DeletePct + cfg.ScanPct; p != 100 {
		panic(fmt.Sprintf("tmkv: %s mix sums to %d%%, want 100%%", cfg.Name, p))
	}
	return &B{cfg: cfg}
}

// Name implements tm.Workload.
func (b *B) Name() string { return b.cfg.Name }

// MemConfig implements tm.Workload: it sizes the heap for the worst
// case of every key holding MaxVersions values of MaxBlocks unshared
// blocks, with slack for allocator rounding and dedup-map churn.
func (b *B) MemConfig() tm.MemConfig { return b.cfg.memConfig(0) }

// memConfig sizes the simulated address space for the worst case of
// every key holding MaxVersions maximum-size values, plus churnVersions
// extra value builds whose trimmed-and-freed predecessors may sit
// unrecycled in per-thread limbo lists (the served front-end's churn;
// the self-driving workload's version trims recycle fast enough that
// it passes 0). Address-space words are virtual — untouched ones cost
// nothing — so the headroom is cheap insurance.
func (c Config) memConfig(churnVersions int) tm.MemConfig {
	perBlock := BlockWords + brSize + 8 /* dedup entry + hash key */ + 4
	perVersion := c.MaxBlocks*perBlock + objSize + 4 + c.MaxBlocks + 4 /* vector */ + 4 /* list node */
	perKey := c.MaxVersions*perVersion + krSize + 8 /* index entry + key copy */ + c.KeyWords
	words := c.Keys*perKey + churnVersions*perVersion + 4*c.Keys /* buckets */ + (1 << 16)
	heap := 1 << 18
	for heap < 2*words {
		heap <<= 1
	}
	return tm.MemConfig{GlobalWords: 1 << 10, HeapWords: heap, StackWords: 1 << 12, MaxThreads: 32}
}

// opThresholds precomputes the cumulative mix boundaries.
func (c Config) opThresholds() [4]int {
	return [4]int{
		c.ReadPct,
		c.ReadPct + c.UpdatePct,
		c.ReadPct + c.UpdatePct + c.InsertPct,
		c.ReadPct + c.UpdatePct + c.InsertPct + c.DeletePct,
	}
}

// makeKey builds the probe key for id in a transaction-local stack
// buffer (the packs' shared encoding).
func (b *B) makeKey(tx *stm.Tx, id uint64) mem.Addr {
	return dist.StackKey(tx, id, b.cfg.KeyWords)
}

// valueShape derives a value's block count deterministically from the
// key and version, so re-inserting a deleted key regenerates identical
// content and hits the dedup map.
func (c Config) valueShape(id, version uint64) int {
	span := c.MaxBlocks - c.MinBlocks + 1
	mix := (id*0x9E3779B97F4A7C15 + version) >> 17
	return c.MinBlocks + int(mix%uint64(span))
}

// stageValue allocates a staging buffer inside the transaction and
// fills it with the value for (id, version). Roughly a quarter of the
// blocks take a pattern from a small shared pool, so the dedup map
// sees real sharing across keys; the rest are unique to (id, version,
// block). Fills are fresh-provenance stores — the captured-heap writes
// of the paper's Fig. 8. Shared by the self-driving workload and the
// served backend, so both generate bit-identical values.
func (c Config) stageValue(tx *stm.Tx, id, version uint64) (mem.Addr, int) {
	nblocks := c.valueShape(id, version)
	words := nblocks * BlockWords
	stage := tx.Alloc(words)
	for blk := 0; blk < nblocks; blk++ {
		sel := id*31 + version*7 + uint64(blk)
		base := stage + mem.Addr(blk*BlockWords)
		if sel%4 == 0 {
			pool := sel % 8 // one of eight common patterns
			for j := 0; j < BlockWords; j++ {
				tx.Store(base+mem.Addr(j), pool*0xABCD+uint64(j), stm.AccFresh)
			}
		} else {
			for j := 0; j < BlockWords; j++ {
				tx.Store(base+mem.Addr(j), sel*0x2545F4914F6CDD1D+uint64(j)*13, stm.AccFresh)
			}
		}
	}
	return stage, words
}

// Setup implements tm.Workload: it creates the store and preloads
// PreloadPct of the key space single-threadedly, inside thread 0's
// Exclusive scope.
func (b *B) Setup(trt *tm.Runtime) {
	if b.cfg.Zipf {
		b.dist = dist.NewZipf(b.cfg.Keys, b.cfg.Theta)
	}
	th := trt.Unwrap().Thread(0)
	th.Exclusive(func() { b.store, b.preload = b.cfg.setup(th) })
}

// setup creates the store on th and preloads PreloadPct of the key
// space, one transaction per key, returning the store and the number
// of keys preloaded. The workload and the served backend share it.
func (c Config) setup(th *stm.Thread) (Store, int) {
	var s Store
	th.Atomic(func(tx *stm.Tx) {
		s = NewStore(tx, c.Keys/2, c.Keys*c.MaxBlocks/2)
	})
	preload := c.Keys * c.PreloadPct / 100
	for i := 0; i < preload; i++ {
		id := dist.RankToKey(i, c.Keys)
		th.Atomic(func(tx *stm.Tx) {
			kb := dist.StackKey(tx, id, c.KeyWords)
			stage, words := c.stageValue(tx, id, 1)
			if !s.insert(tx, kb, c.KeyWords, stage, words) {
				panic("tmkv: preload collision")
			}
			tx.Free(stage)
		})
	}
	return s, preload
}

// pickKey draws a key id for one operation.
func (b *B) pickKey(r *prng.R) uint64 {
	if b.dist != nil {
		return dist.RankToKey(b.dist.Sample(r), b.cfg.Keys)
	}
	return dist.RankToKey(r.Intn(b.cfg.Keys), b.cfg.Keys)
}

// Run implements tm.Workload: the timed parallel phase. Ops are split
// across nthreads workers, each with its own deterministic generator.
func (b *B) Run(trt *tm.Runtime, nthreads int) {
	rt := trt.Unwrap()
	b.perTh = make([]threadStats, nthreads)
	thresholds := b.cfg.opThresholds()
	var wg sync.WaitGroup
	for t := 0; t < nthreads; t++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			b.worker(rt.Thread(tid), tid, nthreads, thresholds)
		}(t)
	}
	wg.Wait()
}

func (b *B) worker(th *stm.Thread, tid, nthreads int, thresholds [4]int) {
	c := b.cfg
	ops := c.Ops / nthreads
	if tid == 0 {
		ops += c.Ops % nthreads
	}
	r := prng.New(c.Seed + uint64(tid)*0x9E3779B97F4A7C15)
	st := &b.perTh[tid]
	for i := 0; i < ops; i++ {
		op := r.Intn(100)
		id := b.pickKey(r)
		// Each operation is tagged with its capture regime, like the
		// tmmsg driver: reads and scans store only into captured memory
		// (stack keys, result vectors) and are scan-shaped; mutations
		// assemble their value in captured staging space and publish it
		// to the shared index. The hints are unconditional — under a
		// profile without tm.WithPhases they select the default engine
		// and the run is byte-for-byte the classic single-engine one.
		switch {
		case op < thresholds[0]:
			th.EnterPhase(tm.PhaseScan)
			b.opRead(th, st, id)
		case op < thresholds[1]:
			th.EnterPhase(tm.PhasePublish)
			b.opUpdate(th, st, id)
		case op < thresholds[2]:
			th.EnterPhase(tm.PhasePublish)
			b.opInsert(th, st, id)
		case op < thresholds[3]:
			th.EnterPhase(tm.PhasePublish)
			b.opDelete(th, st, id)
		default:
			th.EnterPhase(tm.PhaseScan)
			b.opScan(th, st)
		}
	}
}

func (b *B) opRead(th *stm.Thread, st *threadStats, id uint64) {
	var hit, sumOK bool
	th.Atomic(func(tx *stm.Tx) {
		hit, sumOK = false, true
		kb := b.makeKey(tx, id)
		if kr, ok := b.store.lookup(tx, kb, b.cfg.KeyWords); ok {
			hit = true
			_, sumOK = b.store.readLatest(tx, kr)
		}
	})
	if !hit {
		st.misses++
		return
	}
	st.reads++
	if !sumOK {
		st.badSum++
	}
}

func (b *B) opUpdate(th *stm.Thread, st *threadStats, id uint64) {
	var did, inserted bool
	th.Atomic(func(tx *stm.Tx) {
		did, inserted = false, false
		kb := b.makeKey(tx, id)
		if kr, ok := b.store.lookup(tx, kb, b.cfg.KeyWords); ok {
			version := tx.Load(kr+krLatest, txlib.TM) + 1
			stage, words := b.cfg.stageValue(tx, id, version)
			b.store.update(tx, kr, stage, words, b.cfg.MaxVersions)
			tx.Free(stage)
			did = true
		} else {
			// Update of an absent key falls back to an insert, like an
			// upsert path would.
			stage, words := b.cfg.stageValue(tx, id, 1)
			inserted = b.store.insert(tx, kb, b.cfg.KeyWords, stage, words)
			tx.Free(stage)
		}
	})
	if did {
		st.updates++
	} else if inserted {
		st.inserts++
	}
}

func (b *B) opInsert(th *stm.Thread, st *threadStats, id uint64) {
	var inserted bool
	th.Atomic(func(tx *stm.Tx) {
		kb := b.makeKey(tx, id)
		stage, words := b.cfg.stageValue(tx, id, 1)
		inserted = b.store.insert(tx, kb, b.cfg.KeyWords, stage, words)
		tx.Free(stage)
	})
	if inserted {
		st.inserts++
	} else {
		st.misses++
	}
}

func (b *B) opDelete(th *stm.Thread, st *threadStats, id uint64) {
	var removed bool
	th.Atomic(func(tx *stm.Tx) {
		kb := b.makeKey(tx, id)
		removed = b.store.remove(tx, kb, b.cfg.KeyWords)
	})
	if removed {
		st.deletes++
	} else {
		st.misses++
	}
}

func (b *B) opScan(th *stm.Thread, st *threadStats) {
	th.Atomic(func(tx *stm.Tx) {
		b.store.scan(tx, b.cfg.ScanLimit)
	})
	st.scans++
}

// Validate implements tm.Workload. It cross-checks three independent
// views of the final state: the per-thread committed-effect counters
// against the index size, every object's stored checksum against its
// block contents, and the dedup map's reference counts against the
// references actually reachable from the index.
//
// It runs inside thread 0's Exclusive scope: Run has returned, so no
// other thread transacts, and the walk reads the same words without
// barriers.
func (b *B) Validate(trt *tm.Runtime) error {
	th := trt.Unwrap().Thread(0)
	var err error
	th.Exclusive(func() { err = b.validate(th) })
	return err
}

// validate is Validate's walk on th.
func (b *B) validate(th *stm.Thread) error {
	th.EnterPhase(tm.PhaseScan) // read-only verification walks

	var inserts, deletes, badSum uint64
	for i := range b.perTh {
		inserts += b.perTh[i].inserts
		deletes += b.perTh[i].deletes
		badSum += b.perTh[i].badSum
	}
	if badSum != 0 {
		return fmt.Errorf("tmkv: %d reads saw a checksum mismatch", badSum)
	}

	var size int
	th.Atomic(func(tx *stm.Tx) { size = b.store.Size(tx) })
	want := b.preload + int(inserts) - int(deletes)
	if size != want {
		return fmt.Errorf("tmkv: index size %d, want %d (preload %d + inserts %d - deletes %d)",
			size, want, b.preload, inserts, deletes)
	}

	// Pass 1: collect every key record, then verify each in its own
	// transaction (bounded read sets), counting block references.
	var krs []mem.Addr
	th.Atomic(func(tx *stm.Tx) {
		krs = krs[:0] // retry-safe: judge only the committed attempt
		txlib.HTForEach(tx, b.store.index, txlib.TM, func(_ mem.Addr, _ int, data uint64) bool {
			krs = append(krs, mem.Addr(data))
			return true
		})
	})
	if len(krs) != size {
		return fmt.Errorf("tmkv: index walk found %d records, size says %d", len(krs), size)
	}
	refs := make(map[mem.Addr]uint64)
	for _, kr := range krs {
		var err error
		th.Atomic(func(tx *stm.Tx) {
			err = b.validateKey(tx, kr, refs)
		})
		if err != nil {
			return err
		}
	}

	// Pass 2: the dedup map must hold exactly the referenced block
	// records, each with a matching refcount and content hash.
	var err error
	th.Atomic(func(tx *stm.Tx) {
		err = nil // retry-safe: judge only the committed attempt
		entries := 0
		txlib.HTForEach(tx, b.store.dedup, txlib.TM, func(keyPtr mem.Addr, keyWords int, data uint64) bool {
			entries++
			br := mem.Addr(data)
			wantRef, ok := refs[br]
			if !ok {
				err = fmt.Errorf("tmkv: dedup map holds unreferenced block record %d", br)
				return false
			}
			if got := tx.Load(br+brRef, txlib.TM); got != wantRef {
				err = fmt.Errorf("tmkv: block record %d refcount %d, want %d", br, got, wantRef)
				return false
			}
			block := tx.LoadAddr(br+brBlock, txlib.TM)
			content := make([]uint64, BlockWords)
			for j := range content {
				content[j] = tx.Load(block+mem.Addr(j), txlib.TM)
			}
			h := contentHash(content)
			if h != tx.Load(br+brHash, txlib.TM) || h != tx.Load(keyPtr, txlib.TM) {
				err = fmt.Errorf("tmkv: block record %d hash does not match its content", br)
				return false
			}
			if keyWords != 1 {
				err = fmt.Errorf("tmkv: dedup key of %d words, want 1", keyWords)
				return false
			}
			return true
		})
		if err == nil && entries != len(refs) {
			err = fmt.Errorf("tmkv: dedup map holds %d blocks, index references %d", entries, len(refs))
		}
	})
	return err
}

// validateKey checks one key record's version chain: chain length in
// bounds, newest version present, every object's checksum matching its
// blocks. Block references are tallied into refs.
func (b *B) validateKey(tx *stm.Tx, kr mem.Addr, refs map[mem.Addr]uint64) error {
	versions := tx.LoadAddr(kr+krVersions, txlib.TM)
	n := txlib.ListSize(tx, versions, txlib.TM)
	if n < 1 || n > b.cfg.MaxVersions {
		return fmt.Errorf("tmkv: key record %d holds %d versions, want 1..%d", kr, n, b.cfg.MaxVersions)
	}
	latest := tx.Load(kr+krLatest, txlib.TM)
	if _, ok := txlib.ListFind(tx, versions, latest, txlib.TM); !ok {
		return fmt.Errorf("tmkv: key record %d missing its latest version %d", kr, latest)
	}
	it := txlib.ListIterNew(tx)
	txlib.ListIterReset(tx, it, versions, txlib.TM)
	for txlib.ListIterHasNext(tx, it) {
		v, data := txlib.ListIterNext(tx, it, txlib.TM)
		if v > latest {
			return fmt.Errorf("tmkv: key record %d holds version %d beyond latest %d", kr, v, latest)
		}
		obj := mem.Addr(data)
		if _, ok := b.store.readObject(tx, obj); !ok {
			return fmt.Errorf("tmkv: object %d (key record %d, version %d) fails its checksum", obj, kr, v)
		}
		vec := tx.LoadAddr(obj+objVec, txlib.TM)
		for i := 0; i < txlib.VecSize(tx, vec, txlib.TM); i++ {
			refs[mem.Addr(txlib.VecGet(tx, vec, i, txlib.TM))]++
		}
	}
	return nil
}
