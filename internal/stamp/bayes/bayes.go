// Package bayes ports STAMP's bayes: Bayesian network structure
// learning by hill climbing. A shared task list keeps candidate
// (variable, parent) insertions ordered by expected benefit; worker
// threads pop the best task, score it against precomputed pairwise
// co-occurrence counts (the adtree substitute: a large read-only table
// whose accesses the naive compiler instruments — bayes' big
// "not-required-other" slice in the paper's Fig. 8), accumulate the
// score in *per-thread query vectors* (the paper's Fig. 1(b)
// thread-local data, elidable only with the annotation API), and on
// success add the parent edge and push follow-up tasks.
//
// Substitution note: STAMP's adtree (a dynamic count index over the
// record set) is replaced by a dense pairwise count table computed at
// setup; both are read-only during the learning phase and are read on
// every score evaluation, which is the property the experiments use.
package bayes

import (
	"fmt"
	"sync/atomic"

	"repro/internal/mem"
	"repro/internal/prng"
	"repro/internal/stamp"
	"repro/internal/stm"
	"repro/internal/txlib"
)

// Config mirrors STAMP's learner parameters.
type Config struct {
	Name       string
	Vars       int // -v: variables in the network
	Records    int // -r: records used to build the counts
	MaxParents int // -p: parent cap per variable
	Seed       uint64
	// Annotate marks the per-thread query vectors with the paper's
	// addPrivateMemoryBlock API (Sec. 3.1.3) so configurations with
	// Annotations enabled can elide their barriers.
	Annotate bool
}

// Default returns the scaled-down bayes configuration.
func Default() Config {
	return Config{Name: "bayes", Vars: 64, Records: 2048, MaxParents: 6, Seed: 9}
}

// Task list keys order by descending benefit; key = ^benefit so the
// sorted list pops the best first.
const (
	taskVar    = 0
	taskParent = 1
	taskScore  = 2
	taskSize   = 3
)

// B is one bayes run.
type B struct {
	cfg Config

	counts  mem.Addr // Vars×Vars pairwise co-occurrence counts (read-only)
	singles mem.Addr // Vars single counts (read-only)
	parents mem.Addr // per-var parent list heads: Vars list addrs
	nParent mem.Addr // per-var parent counters
	tasks   mem.Addr // shared task list ordered by benefit
	applied mem.Addr // global count of applied edges

	inflight atomic.Int64 // queued-but-unprocessed tasks
}

func init() {
	stamp.Register("bayes",
		"STAMP bayes: Bayesian network structure learning over an adtree", func() stamp.Benchmark { return &B{cfg: Default()} })
}

// NewWith creates a bayes instance with a custom configuration.
func NewWith(cfg Config) *B { return &B{cfg: cfg} }

// Name implements stamp.Benchmark.
func (b *B) Name() string { return b.cfg.Name }

// MemConfig implements stamp.Benchmark.
func (b *B) MemConfig() mem.Config {
	words := b.cfg.Vars*b.cfg.Vars + b.cfg.Vars*8 + (1 << 19)
	return mem.Config{GlobalWords: 1 << 10, HeapWords: words, StackWords: 1 << 12, MaxThreads: 32}
}

// Setup builds the count tables from synthetic records and seeds the
// task list with one candidate per variable.
func (b *B) Setup(rt *stm.Runtime) {
	r := prng.New(b.cfg.Seed)
	v := b.cfg.Vars
	th := rt.Thread(0)
	s := rt.Space()

	b.counts = th.Alloc(v * v)
	b.singles = th.Alloc(v)
	b.parents = th.Alloc(v)
	b.nParent = th.Alloc(v)
	b.applied = th.Alloc(1)

	// Synthetic records: each variable biased by a hidden dependency
	// on variable (i+1)%v so scores are non-trivial. The counts add up
	// in Go memory and reach the space one store per word.
	rec := make([]byte, v)
	singles := make([]uint64, v)
	counts := make([]uint64, v*v)
	for n := 0; n < b.cfg.Records; n++ {
		for i := 0; i < v; i++ {
			rec[i] = byte(r.Intn(2))
		}
		for i := 0; i < v; i++ {
			if rec[(i+1)%v] == 1 && r.Intn(100) < 70 {
				rec[i] = 1
			}
		}
		for i := 0; i < v; i++ {
			if rec[i] == 1 {
				singles[i]++
				row := counts[i*v : (i+1)*v]
				for j := 0; j < v; j++ {
					row[j] += uint64(rec[j])
				}
			}
		}
	}
	for i, c := range singles {
		s.Store(b.singles+mem.Addr(i), c)
	}
	for i, c := range counts {
		s.Store(b.counts+mem.Addr(i), c)
	}

	th.Atomic(func(tx *stm.Tx) {
		b.tasks = txlib.NewList(tx)
		for i := 0; i < v; i++ {
			l := txlib.NewList(tx)
			tx.StoreAddr(b.parents+mem.Addr(i), l, stm.AccFresh)
		}
	})
	// Seed one task per variable: candidate parent = (i+1)%v.
	for i := 0; i < v; i++ {
		i := i
		th.Atomic(func(tx *stm.Tx) {
			b.pushTask(tx, uint64(i), uint64((i+1)%b.cfg.Vars), 0)
		})
	}
	b.inflight.Store(int64(v))
}

// pushTask allocates a task record inside the transaction (captured)
// and inserts it into the shared benefit-ordered list.
func (b *B) pushTask(tx *stm.Tx, varID, parent, round uint64) {
	t := tx.Alloc(taskSize)
	tx.Store(t+taskVar, varID, stm.AccFresh)
	tx.Store(t+taskParent, parent, stm.AccFresh)
	tx.Store(t+taskScore, round, stm.AccFresh)
	// Key: earlier rounds first, then by variable (unique per (v,r)).
	key := round<<32 | varID
	txlib.ListInsert(tx, b.tasks, key, uint64(t), txlib.TM)
}

// Run executes the learner loop.
func (b *B) Run(rt *stm.Runtime, nthreads int) {
	v := b.cfg.Vars
	stamp.RunParallel(rt, nthreads, func(th *stm.Thread, tid, n int) {
		// The per-thread query vectors of the paper's Fig. 1(b):
		// allocated once per thread, reused across transactions —
		// thread-local but *not* transaction-local, so only the
		// annotation API can elide their barriers.
		qv := th.Alloc(v)
		qv2 := th.Alloc(v)
		if b.cfg.Annotate {
			th.AddPrivateBlock(qv, v)
			th.AddPrivateBlock(qv2, v)
		}
		for {
			var task mem.Addr
			th.Atomic(func(tx *stm.Tx) {
				task = 0
				if _, data, ok := txlib.ListRemoveHead(tx, b.tasks, txlib.TM); ok {
					task = mem.Addr(data)
				}
			})
			if task == 0 {
				if b.inflight.Load() == 0 {
					return
				}
				continue // a follow-up task may still be coming
			}
			queued := b.learn(th, task, qv, qv2)
			b.inflight.Add(queued - 1)
		}
		// Note: the private blocks stay annotated; threads are not
		// reused across benchmarks.
	})
}

// learn evaluates one task and applies it if beneficial, returning
// how many follow-up tasks it queued.
func (b *B) learn(th *stm.Thread, task, qv, qv2 mem.Addr) int64 {
	v := b.cfg.Vars
	var queued int64
	th.Atomic(func(tx *stm.Tx) {
		queued = 0
		varID := tx.Load(task+taskVar, stm.AccShared)
		parent := tx.Load(task+taskParent, stm.AccShared)
		round := tx.Load(task+taskScore, stm.AccShared)

		// Score: populate the query vectors (thread-local, AccAuto)
		// from the read-only count tables (AccAuto: instrumented by
		// the naive compiler, not captured, not hand-annotated).
		for j := 0; j < v; j++ {
			c := tx.Load(b.counts+mem.Addr(int(varID)*v+j), stm.AccAuto)
			tx.Store(qv+mem.Addr(j), c, stm.AccAuto)
		}
		for j := 0; j < v; j++ {
			c := tx.Load(b.counts+mem.Addr(int(parent)*v+j), stm.AccAuto)
			tx.Store(qv2+mem.Addr(j), c, stm.AccAuto)
		}
		var score uint64
		for j := 0; j < v; j++ {
			a := tx.Load(qv+mem.Addr(j), stm.AccAuto)
			c := tx.Load(qv2+mem.Addr(j), stm.AccAuto)
			if c != 0 {
				score += a * 1024 / (a + c)
			}
		}
		single := tx.Load(b.singles+mem.Addr(parent), stm.AccAuto)
		beneficial := score > single // synthetic acceptance criterion

		np := tx.Load(b.nParent+mem.Addr(varID), stm.AccShared)
		if beneficial && np < uint64(b.cfg.MaxParents) {
			// Apply: record the parent edge.
			plist := tx.LoadAddr(b.parents+mem.Addr(varID), stm.AccShared)
			if txlib.ListInsert(tx, plist, parent, score, txlib.TM) {
				tx.Store(b.nParent+mem.Addr(varID), np+1, stm.AccShared)
				tx.Store(b.applied, tx.Load(b.applied, stm.AccShared)+1, stm.AccShared)
				// Follow-up: try the next candidate parent.
				next := (parent + 1) % uint64(v)
				if next != varID && round+1 < uint64(b.cfg.MaxParents) {
					b.pushTask(tx, varID, next, round+1)
					queued++
				}
			}
		}
		tx.Free(task)
	})
	return queued
}

// Validate checks the structural invariants: parent counts within the
// cap and consistent with the lists, and the applied counter matching.
func (b *B) Validate(rt *stm.Runtime) error {
	var err error
	rt.Thread(0).Atomic(func(tx *stm.Tx) {
		if txlib.ListSize(tx, b.tasks, txlib.TM) != 0 {
			err = fmt.Errorf("task list not drained")
			return
		}
		var total uint64
		for i := 0; i < b.cfg.Vars; i++ {
			plist := tx.LoadAddr(b.parents+mem.Addr(i), stm.AccShared)
			n := txlib.ListSize(tx, plist, txlib.TM)
			if n > b.cfg.MaxParents {
				err = fmt.Errorf("var %d has %d parents > cap %d", i, n, b.cfg.MaxParents)
				return
			}
			if c := tx.Load(b.nParent+mem.Addr(i), stm.AccShared); c != uint64(n) {
				err = fmt.Errorf("var %d: counter %d != list size %d", i, c, n)
				return
			}
			total += uint64(n)
		}
		if got := tx.Load(b.applied, stm.AccShared); got != total {
			err = fmt.Errorf("applied counter %d != total parents %d", got, total)
		}
	})
	return err
}
