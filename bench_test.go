package repro

// One benchmark per table and figure of the paper's evaluation
// (Sec. 4), plus barrier microbenchmarks and ablations, all written
// against the public tm / tm/bench API. The text reports that
// accompany the paper figures are produced by cmd/barriers and
// cmd/stampbench; these benches measure the same configurations under
// testing.B so `go test -bench=.` regenerates the performance data.

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/capture"
	"repro/internal/mem"
	"repro/internal/prng"
	"repro/internal/stm"
	"repro/tm"
	"repro/tm/bench"

	_ "repro/internal/scenarios/tmkv"
	_ "repro/internal/scenarios/tmmsg"
	_ "repro/internal/stamp/all"
)

// benchThreads is the paper's maximum thread count; the Dunnington
// had 24 cores and the paper measured up to 16 threads.
const benchThreads = 16

// runBench executes one workload/profile/thread-count data point per
// iteration (setup excluded from the timer).
func runBench(b *testing.B, name string, p tm.Profile, threads int) {
	b.Helper()
	var stats tm.Stats
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		app, err := tm.NewWorkload(name)
		if err != nil {
			b.Fatal(err)
		}
		rt := tm.Open(append(p.Options(), tm.WithMemory(app.MemConfig()))...)
		app.Setup(rt)
		rt.ResetStats()
		b.StartTimer()
		app.Run(rt, threads)
		b.StopTimer()
		if err := app.Validate(rt); err != nil {
			b.Fatal(err)
		}
		stats = rt.Snapshot().Stats
		b.StartTimer()
	}
	b.ReportMetric(stats.AbortRatio(), "aborts/commit")
	if total := stats.ReadTotal + stats.WriteTotal; total > 0 {
		b.ReportMetric(float64(stats.ReadElided()+stats.WriteElided())/float64(total), "elided/barrier")
	}
}

// --- Figure 8 / Figure 9 (barrier mix; counting configurations) ---

// BenchmarkFig8Breakdown runs every application single-threaded in
// counting mode — the configuration that produces the Fig. 8 barrier
// breakdown (use cmd/barriers -fig 8 for the formatted table).
func BenchmarkFig8Breakdown(b *testing.B) {
	for _, name := range bench.Benches() {
		b.Run(name, func(b *testing.B) {
			runBench(b, name, tm.Counting(), 1)
		})
	}
}

// BenchmarkFig9Removal measures each elision technique single-threaded;
// the elided/barrier metric is the Fig. 9 "portion of barriers
// removed" (use cmd/barriers -fig 9 for the formatted table).
func BenchmarkFig9Removal(b *testing.B) {
	techs := map[string]tm.Profile{
		"tree":     tm.RuntimeAll(tm.LogTree),
		"compiler": tm.CompilerElision(),
	}
	for _, name := range []string{"vacation-high", "genome", "yada"} {
		for _, tech := range []string{"tree", "compiler"} {
			b.Run(name+"/"+tech, func(b *testing.B) {
				runBench(b, name, techs[tech], 1)
			})
		}
	}
}

// --- Table 1 (abort-to-commit ratio at 16 threads) ---

// BenchmarkTable1 runs each application at 16 threads under the
// baseline and each optimization; the aborts/commit metric is the
// Table 1 cell (cmd/stampbench -experiment table1 prints the table).
func BenchmarkTable1(b *testing.B) {
	for _, name := range bench.Benches() {
		for _, p := range bench.Table1Configs() {
			b.Run(name+"/"+p.Name(), func(b *testing.B) {
				runBench(b, name, p, benchThreads)
			})
		}
	}
}

// --- Figure 10 (single-thread overhead/improvement) ---

// BenchmarkFig10 measures the runtime configurations and the compiler
// optimization against the baseline at one thread.
func BenchmarkFig10(b *testing.B) {
	for _, name := range bench.Benches() {
		for _, p := range bench.Fig10Configs() {
			b.Run(name+"/"+p.Name(), func(b *testing.B) {
				runBench(b, name, p.Perf(), 1)
			})
		}
	}
}

// --- Figure 11(a) (16-thread improvement) ---

// BenchmarkFig11a measures the Fig. 10 configurations at 16 threads.
// With one allocation log, the paper's Fig. 11(b) is its heap-write
// column.
func BenchmarkFig11a(b *testing.B) {
	for _, name := range []string{"vacation-high", "vacation-low", "genome", "intruder", "kmeans-high", "yada"} {
		for _, p := range bench.Fig10Configs() {
			b.Run(name+"/"+p.Name(), func(b *testing.B) {
				runBench(b, name, p.Perf(), benchThreads)
			})
		}
	}
}

// --- tmkv scenario pack (beyond the STAMP roster) ---

// tmkvVariants are the registered key-value/object-store mixes.
var tmkvVariants = []string{"tmkv", "tmkv-read", "tmkv-write"}

// BenchmarkTMKV measures the KV/object-store scenario single-threaded
// under the Fig. 10 configurations: the allocate-build-publish write
// paths make it the allocation-heaviest workload in the matrix, so the
// capture techniques shift its numbers more than most STAMP ports.
func BenchmarkTMKV(b *testing.B) {
	for _, name := range tmkvVariants {
		for _, p := range bench.Fig10Configs() {
			b.Run(name+"/"+p.Name(), func(b *testing.B) {
				runBench(b, name, p.Perf(), 1)
			})
		}
	}
}

// BenchmarkTMKVParallel measures the mixes contended at 16 threads
// under the baseline and the strongest runtime and compiler profiles.
func BenchmarkTMKVParallel(b *testing.B) {
	profiles := []tm.Profile{
		tm.Baseline(),
		tm.RuntimeAll(tm.LogTree),
		tm.CompilerElision(),
	}
	for _, name := range tmkvVariants {
		for _, p := range profiles {
			b.Run(name+"/"+p.Name(), func(b *testing.B) {
				runBench(b, name, p.Perf(), benchThreads)
			})
		}
	}
}

// --- tmmsg scenario pack (transactional message broker) ---

// tmmsgVariants are the registered broker mixes.
var tmmsgVariants = []string{"tmmsg", "tmmsg-pub", "tmmsg-sub"}

// BenchmarkTMMSG measures the broker single-threaded under the Fig. 10
// configurations. Batch publishes are pure allocate-build-publish, so
// the capture techniques move tmmsg-pub the most of any workload in
// the matrix, while tmmsg-sub's contended shared cursors barely move —
// the two regimes of the paper side by side in one scenario.
func BenchmarkTMMSG(b *testing.B) {
	for _, name := range tmmsgVariants {
		for _, p := range bench.Fig10Configs() {
			b.Run(name+"/"+p.Name(), func(b *testing.B) {
				runBench(b, name, p.Perf(), 1)
			})
		}
	}
}

// BenchmarkTMMSGParallel measures the mixes contended at 16 threads
// under the baseline and the strongest runtime and compiler profiles:
// the consumer-group cursors make this the most write-contended
// scenario in the matrix.
func BenchmarkTMMSGParallel(b *testing.B) {
	profiles := []tm.Profile{
		tm.Baseline(),
		tm.RuntimeAll(tm.LogTree),
		tm.CompilerElision(),
	}
	for _, name := range tmmsgVariants {
		for _, p := range profiles {
			b.Run(name+"/"+p.Name(), func(b *testing.B) {
				runBench(b, name, p.Perf(), benchThreads)
			})
		}
	}
}

// BenchmarkTMMSGPhased is the phase-hint A/B: each broker mix under
// one engine for the whole run (the strongest single-engine choices)
// vs phase-aware switching between the publish and cursor engines. On
// the publish-heavy mix the hinted run keeps capture checking exactly
// where it pays; on the cursor-heavy mix it removes the capture checks
// that can never elide — the regime split a single compiled engine
// must always sacrifice one side of.
func BenchmarkTMMSGPhased(b *testing.B) {
	single := []tm.Profile{
		tm.Baseline().Perf().Named("single-baseline"),
		tm.RuntimeAll(tm.LogTree).Perf().Named("single-runtime"),
	}
	hinted := []tm.Profile{
		tm.Baseline().Perf().With(tm.WithPhases(bench.PhaseRegimeSpecs()...)).Named("phased-baseline"),
		tm.RuntimeAll(tm.LogTree).Perf().With(tm.WithPhases(bench.PhaseRegimeSpecs()...)).Named("phased-runtime"),
	}
	for _, name := range tmmsgVariants {
		for i := range single {
			b.Run(name+"/"+single[i].Name(), func(b *testing.B) {
				runBench(b, name, single[i], 1)
			})
			b.Run(name+"/"+hinted[i].Name(), func(b *testing.B) {
				runBench(b, name, hinted[i], 1)
			})
		}
	}
}

// --- Served front-end (application-side transaction merging) ---

// BenchmarkServeMerge runs the served backends through the open-loop
// harness at peak load, one-transaction-per-request vs merged: the
// req/s and p95 metrics are the merge-width A/B the tmsrv sweeps
// explore in full (use cmd/tmsrv for the merge-width x worker x
// offered-load grid), and merged/req confirms the queue actually
// sustained batching rather than degenerating to width 1.
func BenchmarkServeMerge(b *testing.B) {
	p := tm.RuntimeAll(tm.LogTree).Perf()
	for _, backend := range []string{"srv-tmkv", "srv-tmmsg"} {
		for _, mw := range []int{1, 8} {
			b.Run(fmt.Sprintf("%s/mw%d", backend, mw), func(b *testing.B) {
				var last bench.Result
				for i := 0; i < b.N; i++ {
					res, err := bench.RunOpenLoop(bench.OpenLoopSpec{
						Backend:    backend,
						Profile:    p,
						Workers:    4,
						MergeWidth: mw,
						Clients:    8,
						Requests:   4096,
						Seed:       uint64(i) + 1,
					})
					if err != nil {
						b.Fatal(err)
					}
					if res.Latency.Aborted > 0 {
						b.Fatalf("%d requests aborted", res.Latency.Aborted)
					}
					last = res
				}
				lat := last.Latency
				b.ReportMetric(lat.AchievedRPS, "req/s")
				b.ReportMetric(float64(lat.P95Ns), "p95-ns")
				b.ReportMetric(float64(lat.MergedReplies)/float64(lat.Requests), "merged/req")
			})
		}
	}
}

// --- Barrier engine (profile-compiled fast paths vs reference chain) ---

// BenchmarkEngineVsGeneric compares each specialized perf engine with
// the forced generic reference chain on the same profile: the delta is
// the cost of re-interpreting the optimization profile on every access,
// which the engine compilation removes.
func BenchmarkEngineVsGeneric(b *testing.B) {
	profiles := []tm.Profile{
		tm.Baseline().Perf(),
		tm.RuntimeAll(tm.LogTree).Perf(),
		tm.CompilerElision().Perf(),
	}
	for _, name := range []string{"tmkv", "vacation-low", "kmeans-high"} {
		for _, p := range profiles {
			b.Run(name+"/"+p.Name()+"/engine", func(b *testing.B) {
				runBench(b, name, p, 1)
			})
			b.Run(name+"/"+p.Name()+"/generic", func(b *testing.B) {
				runBench(b, name, p.With(tm.WithEngine(tm.EngineGeneric)), 1)
			})
		}
	}
}

// --- Barrier microbenchmarks (cost model of Fig. 2's fast path) ---

func barrierRT(p tm.Profile) (*tm.Runtime, *tm.Thread, tm.Struct) {
	rt := tm.Open(append(p.Options(), tm.WithMemory(tm.MemConfig{
		GlobalWords: 1 << 8, HeapWords: 1 << 16, StackWords: 1 << 10, MaxThreads: 2,
	}))...)
	th := rt.Thread(0)
	g := rt.AllocGlobal(64)
	return rt, th, g
}

// batched runs b.N barrier operations in transactions of 512
// operations each, so per-transaction log sizes stay realistic.
// prep runs at the start of every transaction and returns the base
// block the operation loop uses; heap-allocating preps free the
// block again before commit so the arena never grows.
func batched(b *testing.B, th *tm.Thread, prep func(tx *tm.Tx) tm.Struct, op func(tx *tm.Tx, base tm.Struct, i int)) {
	batchedN(b, th, 512, prep, op)
}

// batchedN is batched with n operations per transaction.
func batchedN(b *testing.B, th *tm.Thread, n int, prep func(tx *tm.Tx) tm.Struct, op func(tx *tm.Tx, base tm.Struct, i int)) {
	b.Helper()
	b.ResetTimer()
	i := 0
	for i < b.N {
		th.Atomic(func(tx *tm.Tx) {
			base := prep(tx)
			for j := 0; j < n && i < b.N; j++ {
				op(tx, base, i)
				i++
			}
		})
	}
}

// perChain runs one barrier micro-benchmark on the two chains a profile
// can compile to: "perf", the stats-free engine — what the paper's
// timing builds ran and what the rig's stm.*_ns probes price — and
// "counting", the instrumented interpreting chain behind every reported
// statistic.
func perChain(b *testing.B, p tm.Profile, run func(b *testing.B, p tm.Profile)) {
	b.Run("perf", func(b *testing.B) { run(b, p.Perf()) })
	b.Run("counting", func(b *testing.B) { run(b, p) })
}

// readGlobals is the shared-read loop: 64 global words, so every load
// takes the full barrier (after missing whatever checks p enables).
func readGlobals(b *testing.B, p tm.Profile) {
	_, th, g := barrierRT(p)
	var sink uint64
	batched(b, th, func(tx *tm.Tx) tm.Struct { return g },
		func(tx *tm.Tx, base tm.Struct, i int) {
			sink += base.Word(i & 63).Load(tx)
		})
	_ = sink
}

// freshBlock returns a batched prep that hands each transaction a newly
// allocated (captured) 64-word block, freeing the previous transaction's
// so the arena never grows.
func freshBlock() func(tx *tm.Tx) tm.Struct {
	var cur tm.Struct
	return func(tx *tm.Tx) tm.Struct {
		if !cur.IsNil() {
			tx.Free(cur)
		}
		cur = tx.Alloc(64)
		return cur
	}
}

// readFreshBlock is the captured-read loop: each transaction reads back
// the block it just allocated.
func readFreshBlock(b *testing.B, p tm.Profile) {
	_, th, _ := barrierRT(p)
	var sink uint64
	batched(b, th, freshBlock(), func(tx *tm.Tx, base tm.Struct, i int) {
		sink += base.Word(i & 63).Load(tx)
	})
	_ = sink
}

// BenchmarkBarrierReadFull is the cost of one full (shared) read
// barrier inside a transaction. "perf" and "counting" re-read 64 words
// (8 lines) in transactions of 512 reads: below the read-set length
// (2048) at which the read-after-read filter engages (internal/stm,
// logRead), so every read appends. The next three run transactions of
// 16384 reads, so the filter is engaged for seven reads in eight:
// "filtered" is the same re-read loop, where it finds each (orec,
// version) already logged — the price of a hit; "distinct" reads a new
// line every time — its lookup with nothing to skip; "mixed" reads
// lines drawn at random from 512, so hit and miss follow no pattern the
// branch predictor can learn. "unlogged" is the re-read loop in
// read-mostly mode — validated against the snapshot, never appended to
// the read set — so the logged and unlogged full read sit side by side.
func BenchmarkBarrierReadFull(b *testing.B) {
	perChain(b, tm.Baseline(), readGlobals)
	const long, lines = 1 << 14, 1 << 14
	rt := tm.Open(append(tm.Baseline().Perf().Options(), tm.WithMemory(tm.MemConfig{
		GlobalWords: (lines + 1) * mem.LineWords, HeapWords: 1 << 10, StackWords: 1 << 10, MaxThreads: 2,
	}))...)
	g := rt.AllocGlobal(lines * mem.LineWords)
	r := prng.New(7)
	drawn := make([]int, long)
	for i := range drawn {
		drawn[i] = r.Intn(512) * mem.LineWords
	}
	for _, c := range []struct {
		name string
		word func(i int) int
	}{
		{"filtered", func(i int) int { return i & 63 }},
		{"distinct", func(i int) int { return (i % lines) * mem.LineWords }},
		{"mixed", func(i int) int { return drawn[i%long] }},
	} {
		b.Run(c.name, func(b *testing.B) {
			var sink uint64
			batchedN(b, rt.Thread(0), long, func(tx *tm.Tx) tm.Struct { return g },
				func(tx *tm.Tx, base tm.Struct, i int) {
					sink += base.Word(c.word(i)).Load(tx)
				})
			_ = sink
		})
	}
	b.Run("unlogged", func(b *testing.B) {
		readGlobals(b, tm.Baseline().Perf().With(tm.WithReadMostly()))
	})
}

// BenchmarkLongReadOnly is one long read-only transaction per
// iteration: a scan reading every word of each of `lines` lines twice
// (16 full reads per line), on a thread whose read set starts empty.
// Run with -benchmem: past its first 2048 entries the read set logs
// one entry per line, not per read, so B/op follows the lines a
// transaction touches.
func BenchmarkLongReadOnly(b *testing.B) {
	for _, lines := range []int{1 << 12, 1 << 16} {
		b.Run(fmt.Sprintf("lines=%d", lines), func(b *testing.B) {
			var sink uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				rt := tm.Open(append(tm.Baseline().Perf().Options(), tm.WithMemory(tm.MemConfig{
					GlobalWords: (lines + 1) * mem.LineWords, HeapWords: 1 << 10, StackWords: 1 << 10, MaxThreads: 2,
				}))...)
				g := rt.AllocGlobal(lines * mem.LineWords)
				th := rt.Thread(0)
				b.StartTimer()
				th.Atomic(func(tx *tm.Tx) {
					for w := 0; w < 2*lines*mem.LineWords; w++ {
						sink += g.Word(w / 2).Load(tx)
					}
				})
				b.StopTimer()
				rt.Close()
				b.StartTimer()
			}
			_ = sink
		})
	}
}

// BenchmarkBarrierWriteFull is the cost of one full write barrier
// (distinct addresses, so each pays undo logging; the lock acquisition
// amortizes over the 8 words of a cache line, as in a real workload).
// "distinct" stores to a new line every time, on the perf chain, so
// each store is the first lock of its orec: the price of acquiring one.
func BenchmarkBarrierWriteFull(b *testing.B) {
	perChain(b, tm.Baseline().With(tm.WithoutWAWFilter()), func(b *testing.B, p tm.Profile) {
		_, th, g := barrierRT(p)
		batched(b, th, func(tx *tm.Tx) tm.Struct { return g },
			func(tx *tm.Tx, base tm.Struct, i int) {
				base.Word(i&63).Store(tx, uint64(i))
			})
	})
	b.Run("distinct", func(b *testing.B) {
		const lines = 1 << 14
		rt := tm.Open(append(tm.Baseline().Perf().Options(), tm.WithMemory(tm.MemConfig{
			GlobalWords: (lines + 1) * mem.LineWords, HeapWords: 1 << 10, StackWords: 1 << 10, MaxThreads: 2,
		}))...)
		g := rt.AllocGlobal(lines * mem.LineWords)
		batched(b, rt.Thread(0), func(tx *tm.Tx) tm.Struct { return g },
			func(tx *tm.Tx, base tm.Struct, i int) {
				base.Word((i%lines)*mem.LineWords).Store(tx, uint64(i))
			})
	})
}

// BenchmarkBarrierReadElided measures reads that hit the runtime
// capture analysis, per mechanism. (The freshly allocated block's
// provenance is ignored in the heap run: the profiles enable only
// runtime checks, so elision happens dynamically, as in the paper's
// Fig. 2.)
func BenchmarkBarrierReadElided(b *testing.B) {
	b.Run("heap-tree", func(b *testing.B) {
		perChain(b, tm.RuntimeAll(tm.LogTree), readFreshBlock)
	})
	b.Run("stack", func(b *testing.B) {
		perChain(b, tm.RuntimeAll(tm.LogTree), func(b *testing.B, p tm.Profile) {
			_, th, _ := barrierRT(p)
			var sink uint64
			batched(b, th, func(tx *tm.Tx) tm.Struct { return tx.StackAlloc(64) },
				func(tx *tm.Tx, base tm.Struct, i int) {
					sink += base.Word(i & 63).Load(tx)
				})
			_ = sink
		})
	})
	b.Run("static", func(b *testing.B) {
		// Fresh provenance: statically elided.
		perChain(b, tm.CompilerElision(), readFreshBlock)
	})
}

// BenchmarkBarrierReadMiss measures the added cost of runtime capture
// analysis on reads that are NOT captured (the check is pure overhead,
// the kmeans case from Fig. 10).
func BenchmarkBarrierReadMiss(b *testing.B) {
	b.Run("tree-empty-log", func(b *testing.B) {
		perChain(b, tm.RuntimeAll(tm.LogTree), readGlobals)
	})
	b.Run("tree-loaded-log", func(b *testing.B) {
		perChain(b, tm.RuntimeAll(tm.LogTree), func(b *testing.B, p tm.Profile) {
			_, th, g := barrierRT(p)
			var sink uint64
			var scratch [4]tm.Struct
			batched(b, th, func(tx *tm.Tx) tm.Struct {
				for j := 0; j < 4; j++ {
					if !scratch[j].IsNil() {
						tx.Free(scratch[j])
					}
					scratch[j] = tx.Alloc(8)
				}
				return g
			}, func(tx *tm.Tx, base tm.Struct, i int) {
				sink += base.Word(i & 63).Load(tx)
			})
			_ = sink
		})
	})
}

// BenchmarkBarrierWriteElided measures captured writes (lock and undo
// both elided) against the full barrier above.
func BenchmarkBarrierWriteElided(b *testing.B) {
	b.Run("heap-tree", func(b *testing.B) {
		perChain(b, tm.RuntimeAll(tm.LogTree), func(b *testing.B, p tm.Profile) {
			_, th, _ := barrierRT(p)
			batched(b, th, freshBlock(), func(tx *tm.Tx, base tm.Struct, i int) {
				base.Word(i&63).Store(tx, uint64(i))
			})
		})
	})
}

// BenchmarkAccessFloor prices the floor under every barrier above, in
// the same loop: transactions of 512 accesses to a block each one
// allocated. "space" is the raw word access — Space.Load, and
// Space.StorePlain, which is what a captured store is; "stm" adds
// stm.Tx.Load/Store with a statically elided Acc, which is the engine's
// indirect call and prologue; "api" is the public Word.Load/Store path
// on top. A barrier bench minus the floor of its layer is what the
// barrier itself costs.
func BenchmarkAccessFloor(b *testing.B) {
	at := func(base tm.Struct, i int) mem.Addr { return base.Addr() + mem.Addr(i&63) }
	var space *mem.Space
	for _, l := range []struct {
		name  string
		load  func(tx *tm.Tx, base tm.Struct, i int) uint64
		store func(tx *tm.Tx, base tm.Struct, i int)
	}{
		{"space",
			func(tx *tm.Tx, base tm.Struct, i int) uint64 { return space.Load(at(base, i)) },
			func(tx *tm.Tx, base tm.Struct, i int) { space.StorePlain(at(base, i), uint64(i)) }},
		{"stm",
			func(tx *tm.Tx, base tm.Struct, i int) uint64 { return tx.Unwrap().Load(at(base, i), stm.AccFresh) },
			func(tx *tm.Tx, base tm.Struct, i int) { tx.Unwrap().Store(at(base, i), uint64(i), stm.AccFresh) }},
		{"api",
			func(tx *tm.Tx, base tm.Struct, i int) uint64 { return base.Word(i & 63).Load(tx) },
			func(tx *tm.Tx, base tm.Struct, i int) { base.Word(i&63).Store(tx, uint64(i)) }},
	} {
		b.Run(l.name+"/load", func(b *testing.B) {
			rt, th, _ := barrierRT(tm.CompilerElision().Perf())
			space = rt.Unwrap().Space()
			var sink uint64
			batched(b, th, freshBlock(), func(tx *tm.Tx, base tm.Struct, i int) {
				sink += l.load(tx, base, i)
			})
			_ = sink
		})
		b.Run(l.name+"/store", func(b *testing.B) {
			rt, th, _ := barrierRT(tm.CompilerElision().Perf())
			space = rt.Unwrap().Space()
			batched(b, th, freshBlock(), l.store)
		})
	}
}

// BenchmarkCommitParallel is begin/commit under parallelism with no
// true conflict: one thread per GOMAXPROCS, each committing
// transactions that store to one captured stack word and load and
// store a global line of its own. What -cpu 2 adds over -cpu 1 is the
// cache lines the threads share without sharing data, plus the global
// clock, which every writing commit bumps.
func BenchmarkCommitParallel(b *testing.B) {
	for _, c := range []struct {
		name string
		p    tm.Profile
	}{{"baseline", tm.Baseline().Perf()}, {"capture", tm.RuntimeAll(tm.LogTree).Perf()}} {
		b.Run(c.name, func(b *testing.B) {
			procs := runtime.GOMAXPROCS(0)
			words := (procs + 1) * mem.LineWords
			rt := tm.Open(append(c.p.Options(), tm.WithMemory(tm.MemConfig{
				GlobalWords: words, HeapWords: 1 << 10, StackWords: 1 << 10, MaxThreads: procs,
			}))...)
			g := rt.AllocGlobal(words)
			// Line-align the first thread's line: a line is one orec.
			first := -int(g.Addr()) & (mem.LineWords - 1)
			var ids atomic.Int32
			b.RunParallel(func(pb *testing.PB) {
				id := int(ids.Add(1) - 1)
				th := rt.Thread(id)
				w := g.Word(first + id*mem.LineWords)
				for pb.Next() {
					th.Atomic(func(tx *tm.Tx) {
						tx.StackAlloc(4).Word(0).Store(tx, 1)
						w.Store(tx, w.Load(tx)+1)
					})
				}
			})
		})
	}
}

// BenchmarkCaptureProbeScattered prices one is_captured() probe the way
// a served transaction pays for it: pre-drawn random addresses, about
// half inside one of `ranges` small blocks scattered over a 1 Mi-word
// heap and half anywhere else, so neither the outcome nor the path to
// it repeats. BenchmarkBarrierReadMiss and the rig's capture.*_ns probes
// repeat one address; the branch predictor learns that walk, which is
// how a search tree whose probe cost 5–7 ns there cost several times
// that in the workload. The log is called directly, as the engines'
// inlined probe calls it.
func BenchmarkCaptureProbeScattered(b *testing.B) {
	const (
		heapWords = 1 << 20
		cell      = 64 // one block per cell keeps ranges disjoint
		probes    = 1 << 12
	)
	for _, ranges := range []int{1, 16, 64} {
		b.Run(fmt.Sprintf("tree/ranges=%d", ranges), func(b *testing.B) {
			rng := prng.New(uint64(ranges))
			log := capture.NewTree()
			var blocks [][2]mem.Addr
			taken := map[int]bool{}
			for len(blocks) < ranges {
				c := rng.Intn(heapWords / cell)
				if taken[c] {
					continue
				}
				taken[c] = true
				start := mem.Addr(c*cell + 1 + rng.Intn(cell/2))
				end := start + mem.Addr(1+rng.Intn(16))
				log.Insert(start, end)
				blocks = append(blocks, [2]mem.Addr{start, end})
			}
			addrs := make([]mem.Addr, probes)
			for i := range addrs {
				if i%2 == 0 {
					blk := blocks[rng.Intn(ranges)]
					addrs[i] = blk[0] + mem.Addr(rng.Uint64n(uint64(blk[1]-blk[0])))
				} else {
					addrs[i] = mem.Addr(1 + rng.Intn(heapWords)) // a miss but for luck
				}
			}
			hits := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if log.Contains(addrs[i%probes], 1) {
					hits++
				}
			}
			b.ReportMetric(float64(hits)/float64(b.N), "hit-share")
		})
	}
}

// BenchmarkCaptureChurn prices the allocation log under a transaction
// that frees and re-allocates one block over and over, as a hash-table
// insert/remove pair does when the size class's free list hands the
// same node back: per transaction, `pairs` times Insert the node, probe
// a word it holds and one of its granule it does not, and Remove it,
// then Clear. Per pair. A Remove that only tombstoned its slot made
// each later Insert land one slot further down the chain, so the miss
// walked a chain as long as the pairs so far.
func BenchmarkCaptureChurn(b *testing.B) {
	for _, pairs := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("pairs=%d", pairs), func(b *testing.B) {
			const node = mem.Addr(1 << 12)
			log := capture.NewTree()
			hits := 0
			for i := 0; i < b.N; {
				log.Insert(node-40, node-8) // a block the transaction keeps
				for j := 0; j < pairs && i < b.N; j, i = j+1, i+1 {
					log.Insert(node, node+4)
					if log.Contains(node+1, 1) {
						hits++
					}
					if log.Contains(node+6, 1) {
						hits++
					}
					log.Remove(node, node+4)
				}
				log.Clear()
			}
			if hits != b.N {
				b.Fatalf("%d hits in %d pairs", hits, b.N)
			}
		})
	}
}

// --- Ablations (engine design choices) ---

// BenchmarkAblationSkipShared measures the paper's future-work
// extension: on the no-elision benchmark (kmeans), bypassing runtime
// capture checks for definitely-shared accesses recovers most of the
// check overhead that Fig. 10 shows.
func BenchmarkAblationSkipShared(b *testing.B) {
	for _, on := range []bool{false, true} {
		p := tm.RuntimeAll(tm.LogTree).Perf()
		name := "skip-off"
		if on {
			name = "skip-on"
			p = p.With(tm.WithSkipSharedChecks())
		}
		p = p.Named(name)
		b.Run("kmeans-high/"+name, func(b *testing.B) {
			runBench(b, "kmeans-high", p, 1)
		})
	}
}

// BenchmarkAblationWAW toggles the baseline's write-after-write filter
// (the feature that explains yada's Fig. 10 behaviour).
func BenchmarkAblationWAW(b *testing.B) {
	for _, off := range []bool{false, true} {
		p := tm.Baseline()
		name := "waw-on"
		if off {
			name = "waw-off"
			p = p.With(tm.WithoutWAWFilter())
		}
		p = p.Named(name)
		b.Run("yada/"+name, func(b *testing.B) {
			runBench(b, "yada", p, 1)
		})
	}
}

// --- Durability stages (checkpoint and recovery cost per allocated byte) ---

// durGeometry is a 64 MB space; the durability benches use none or a
// quarter of its heap, so MB/s is per byte of allocated extent — what
// checkpoint and recovery time is proportional to — not per byte of
// address space.
var durGeometry = tm.MemConfig{GlobalWords: 1 << 10, HeapWords: 1 << 23, StackWords: 1 << 12, MaxThreads: 8}

// durableRT opens a durable runtime on a fresh directory and fills
// heapWords words of its heap with un-journaled set-up writes. It
// returns the allocated extent in bytes: everything below the bump
// pointers plus the stacks, which a checkpoint reads.
func durableRT(b *testing.B, heapWords int) (rt *tm.Runtime, dir string, extent int64) {
	b.Helper()
	dir = b.TempDir()
	rt = tm.Open(tm.WithMemory(durGeometry), tm.WithDurability(dir, tm.DurNoFsync()))
	space := rt.Unwrap().Space()
	al := mem.NewAllocator(space)
	const block = 1 << 15 // above the largest size class: carved contiguously
	for n := 0; n < heapWords; n += block {
		p := al.Alloc(block)
		for i := 0; i < block; i++ {
			space.Store(p+mem.Addr(i), uint64(n+i)|1)
		}
	}
	heapLo, _ := space.HeapRange()
	words := space.GlobalsNext() - 1 + space.HeapNext() - uint64(heapLo) + uint64(durGeometry.StackWords*durGeometry.MaxThreads)
	return rt, dir, int64(words) * 8
}

// BenchmarkCheckpoint times Runtime.Checkpoint in its three regimes:
// fresh (nothing allocated: the stacks are read and found zero, nothing
// is hashed), quarter-used (first checkpoint after set-up: every used
// chunk is read, hashed, packed) and steady (nothing changed since the
// last one: read and hashed, all deduplicated).
func BenchmarkCheckpoint(b *testing.B) {
	quarter := durGeometry.HeapWords / 4
	checkpoint := func(b *testing.B, rt *tm.Runtime) {
		if err := rt.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("fresh", func(b *testing.B) {
		rt, _, extent := durableRT(b, 0)
		defer rt.Close()
		b.ReportAllocs()
		b.SetBytes(extent)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			checkpoint(b, rt)
		}
	})
	b.Run("quarter-used", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			rt, _, extent := durableRT(b, quarter)
			b.SetBytes(extent)
			b.StartTimer()
			checkpoint(b, rt)
			b.StopTimer()
			rt.Close()
			b.StartTimer()
		}
	})
	b.Run("steady", func(b *testing.B) {
		rt, _, extent := durableRT(b, quarter)
		defer rt.Close()
		checkpoint(b, rt)
		b.ReportAllocs()
		b.SetBytes(extent)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			checkpoint(b, rt)
		}
	})
}

// BenchmarkRecover times tm.Recover of a quarter-used space: manifest
// verification, chunk load with re-hashing, a short redo tail, and the
// post-recovery checkpoint.
func BenchmarkRecover(b *testing.B) {
	b.Run("quarter-used", func(b *testing.B) {
		rt, dir, extent := durableRT(b, durGeometry.HeapWords/4)
		if err := rt.Checkpoint(); err != nil {
			b.Fatal(err)
		}
		g := rt.AllocGlobal(1)
		th := rt.Thread(0)
		for i := 0; i < 1000; i++ {
			th.Atomic(func(tx *tm.Tx) { g.Word(0).Store(tx, uint64(i)) })
		}
		rt.Crash()
		b.ReportAllocs()
		b.SetBytes(extent)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rt, err := tm.Recover(dir, tm.WithDurability("", tm.DurNoFsync()))
			if err != nil {
				b.Fatal(err)
			}
			rt.Crash()
		}
	})
}
