// Package yada ports the transactional skeleton of STAMP's yada
// (Delaunay mesh refinement). A shared max-heap orders "bad" elements
// by badness; each refinement transaction pops the worst element,
// gathers its cavity (the element plus one live neighbor), removes the
// cavity from the shared element map, allocates replacement elements
// inside the transaction (captured-heap writes, including repeated
// re-writes of the link words that the baseline's write-after-write
// filter absorbs — the effect behind yada's Fig. 10 result), links
// them to the remaining neighbors, and re-queues any replacement that
// is still bad. Refinement strictly improves quality, so the work pool
// drains.
//
// Substitution note: real Delaunay cavity re-triangulation (geometry,
// circumcircle tests) is replaced by this quality-driven split that
// preserves yada's transactional profile: write-heavy transactions,
// several allocations per transaction, repeated writes to the same
// words, and cavity conflicts between neighbors.
package yada

import (
	"fmt"
	"sync/atomic"

	"repro/internal/mem"
	"repro/internal/prng"
	"repro/internal/stamp"
	"repro/internal/stm"
	"repro/internal/txlib"
)

// Element layout. Like STAMP's element_t, an element carries its
// geometry (three vertex coordinate pairs and derived metrics) in
// addition to the quality and the neighbor links; initializing the
// geometry of replacement elements is the captured write traffic.
const (
	elQuality = 0
	elNbr0    = 1
	elNbr1    = 2
	elNbr2    = 3
	elCoords  = 4  // 6 coordinate words
	elMetrics = 10 // 3 derived metric words (angles/edge lengths)
	elSize    = 13
)

// Config sizes the synthetic mesh.
type Config struct {
	Name      string
	Elements  int    // initial mesh elements
	Threshold uint64 // minimum acceptable quality (STAMP's angle bound)
	Seed      uint64
}

// Default returns the scaled-down yada configuration.
func Default() Config {
	return Config{Name: "yada", Elements: 16384, Threshold: 100, Seed: 10}
}

// B is one yada run.
type B struct {
	cfg Config

	elems  mem.Addr // map id → element
	heap   mem.Addr // max-heap of (badness, id)
	nextID mem.Addr // id allocator (shared counter word)

	inflight atomic.Int64 // queued-but-unprocessed bad elements
	created  atomic.Int64
	removed  atomic.Int64
}

func init() {
	stamp.Register("yada",
		"STAMP yada: Delaunay mesh refinement with cavity re-triangulation", func() stamp.Benchmark { return &B{cfg: Default()} })
}

// NewWith creates a yada instance with a custom configuration.
func NewWith(cfg Config) *B { return &B{cfg: cfg} }

// Name implements stamp.Benchmark.
func (b *B) Name() string { return b.cfg.Name }

// MemConfig implements stamp.Benchmark.
func (b *B) MemConfig() mem.Config {
	words := b.cfg.Elements * 64
	return mem.Config{GlobalWords: 1 << 10, HeapWords: words + (1 << 19), StackWords: 1 << 10, MaxThreads: 32}
}

func (b *B) badness(q uint64) uint64 {
	if q >= b.cfg.Threshold {
		return 0
	}
	return b.cfg.Threshold - q
}

// Setup creates the initial mesh and queues every bad element.
func (b *B) Setup(rt *stm.Runtime) {
	r := prng.New(b.cfg.Seed)
	th := rt.Thread(0)
	th.Atomic(func(tx *stm.Tx) {
		b.elems = txlib.NewMap(tx)
		b.heap = txlib.NewHeap(tx, b.cfg.Elements*2)
		b.nextID = tx.Alloc(1)
		tx.Store(b.nextID, 1, stm.AccFresh)
	})
	nBad := 0
	for i := 0; i < b.cfg.Elements; i++ {
		q := uint64(60 + r.Intn(100)) // [60, 160): some below threshold
		n0 := uint64(r.Intn(b.cfg.Elements) + 1)
		n1 := uint64(r.Intn(b.cfg.Elements) + 1)
		n2 := uint64(r.Intn(b.cfg.Elements) + 1)
		bad := b.badness(q) > 0
		if bad {
			nBad++
		}
		coords := [6]uint64{r.Next(), r.Next(), r.Next(), r.Next(), r.Next(), r.Next()}
		th.Atomic(func(tx *stm.Tx) {
			id := tx.Load(b.nextID, stm.AccShared)
			tx.Store(b.nextID, id+1, stm.AccShared)
			e := tx.Alloc(elSize)
			tx.Store(e+elQuality, q, stm.AccFresh)
			tx.Store(e+elNbr0, n0, stm.AccFresh)
			tx.Store(e+elNbr1, n1, stm.AccFresh)
			tx.Store(e+elNbr2, n2, stm.AccFresh)
			initGeometry(tx, e, coords)
			txlib.MapInsert(tx, b.elems, id, uint64(e), txlib.TM)
			if bad {
				txlib.HeapInsert(tx, b.heap, b.badness(q), id, txlib.TM)
			}
		})
	}
	b.created.Store(int64(b.cfg.Elements))
	b.inflight.Store(int64(nBad))
}

// initGeometry writes the vertex coordinates and then the derived
// metrics (which read the just-written coordinates back — captured
// reads) into a freshly allocated element.
func initGeometry(tx *stm.Tx, e mem.Addr, coords [6]uint64) {
	for i, c := range coords {
		tx.Store(e+elCoords+mem.Addr(i), c, stm.AccFresh)
	}
	for i := 0; i < 3; i++ {
		a := tx.Load(e+elCoords+mem.Addr(2*i), stm.AccFresh)
		c := tx.Load(e+elCoords+mem.Addr(2*i+1), stm.AccFresh)
		tx.Store(e+elMetrics+mem.Addr(i), a^c, stm.AccFresh)
	}
}

// Run drains the bad-element heap (STAMP's process()).
func (b *B) Run(rt *stm.Runtime, nthreads int) {
	stamp.RunParallel(rt, nthreads, func(th *stm.Thread, tid, n int) {
		r := prng.New(b.cfg.Seed ^ uint64(tid)*0x9E37)
		for {
			var id uint64
			var ok bool
			th.Atomic(func(tx *stm.Tx) {
				_, id, ok = txlib.HeapExtractMax(tx, b.heap, txlib.TM)
			})
			if !ok {
				if b.inflight.Load() == 0 {
					return
				}
				continue // another thread is still producing work
			}
			b.refine(th, r, id)
			b.inflight.Add(-1)
		}
	})
}

// refine retriangulates the cavity of element id.
func (b *B) refine(th *stm.Thread, r *prng.R, id uint64) {
	var createdN, removedN, queued int64
	th.Atomic(func(tx *stm.Tx) {
		createdN, removedN, queued = 0, 0, 0
		ep, ok := txlib.MapGet(tx, b.elems, id, txlib.TM)
		if !ok {
			return // already consumed as somebody else's cavity
		}
		e := mem.Addr(ep)
		q := tx.Load(e+elQuality, stm.AccShared)
		if b.badness(q) == 0 {
			return // already good (re-queued stale entry)
		}
		// Cavity: the element plus its first still-live neighbor.
		nbrs := [3]uint64{
			tx.Load(e+elNbr0, stm.AccShared),
			tx.Load(e+elNbr1, stm.AccShared),
			tx.Load(e+elNbr2, stm.AccShared),
		}
		cavityQ := q
		var cavityNbr uint64
		for _, nb := range nbrs {
			if nb == 0 || nb == id {
				continue
			}
			if np, ok := txlib.MapGet(tx, b.elems, nb, txlib.TM); ok {
				n := mem.Addr(np)
				nq := tx.Load(n+elQuality, stm.AccShared)
				if nq > cavityQ {
					cavityQ = nq
				}
				txlib.MapRemove(tx, b.elems, nb, txlib.TM)
				tx.Free(n)
				cavityNbr = nb
				removedN++
				break
			}
		}
		txlib.MapRemove(tx, b.elems, id, txlib.TM)
		tx.Free(e)
		removedN++

		// Replace the cavity with three better elements (a real cavity
		// re-triangulation creates several). The link words are written
		// twice (zero-init pattern, then the final link): redundant
		// writes the baseline WAW filter absorbs. Together with the
		// map nodes, the allocations per transaction exceed the
		// one-cache-line range array of the paper's Fig. 6, which is
		// why yada is where that log removes fewer barriers than the
		// tree (paper Fig. 9). Here the map nodes come back from the
		// free list away from the elements carved after them, so about
		// half of yada's blocks miss the STM's two nursery runs and go
		// to the allocation log.
		var childIDs [3]uint64
		for c := 0; c < 3; c++ {
			nid := tx.Load(b.nextID, stm.AccShared)
			tx.Store(b.nextID, nid+1, stm.AccShared)
			childIDs[c] = nid
			nq := cavityQ + 30 + uint64(r.Intn(20))
			ne := tx.Alloc(elSize)
			tx.Store(ne+elQuality, nq, stm.AccFresh)
			// First pass: provisional self-links.
			tx.Store(ne+elNbr0, nid, stm.AccFresh)
			tx.Store(ne+elNbr1, nid, stm.AccFresh)
			tx.Store(ne+elNbr2, nid, stm.AccFresh)
			// Second pass: final links (write-after-write).
			tx.Store(ne+elNbr0, nbrs[c%3], stm.AccFresh)
			tx.Store(ne+elNbr1, cavityNbr, stm.AccFresh)
			tx.Store(ne+elNbr2, nbrs[2], stm.AccFresh)
			initGeometry(tx, ne, [6]uint64{
				r.Next(), r.Next(), r.Next(), r.Next(), r.Next(), r.Next()})
			txlib.MapInsert(tx, b.elems, nid, uint64(ne), txlib.TM)
			createdN++
			if bd := b.badness(nq); bd > 0 {
				txlib.HeapInsert(tx, b.heap, bd, nid, txlib.TM)
				queued++
			}
		}
	})
	b.created.Add(createdN)
	b.removed.Add(removedN)
	b.inflight.Add(queued)
}

// Validate checks the termination invariants: no bad element remains,
// the heap is drained, and the element population is consistent.
func (b *B) Validate(rt *stm.Runtime) error {
	var err error
	var count int
	rt.Thread(0).Atomic(func(tx *stm.Tx) {
		if txlib.HeapSize(tx, b.heap, txlib.TM) != 0 {
			err = fmt.Errorf("heap not drained")
			return
		}
		count = txlib.MapSize(tx, b.elems, txlib.TM)
		txlib.MapForEach(tx, b.elems, txlib.TM, func(id, ep uint64) bool {
			q := tx.Load(mem.Addr(ep)+elQuality, stm.AccShared)
			if q < b.cfg.Threshold {
				err = fmt.Errorf("element %d still bad (quality %d < %d)", id, q, b.cfg.Threshold)
				return false
			}
			return true
		})
	})
	if err != nil {
		return err
	}
	if want := b.created.Load() - b.removed.Load(); int64(count) != want {
		return fmt.Errorf("element count %d != created-removed %d", count, want)
	}
	if b.inflight.Load() != 0 {
		return fmt.Errorf("inflight counter %d != 0", b.inflight.Load())
	}
	return nil
}
