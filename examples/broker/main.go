// Broker: the tmmsg scenario's two capture regimes on the public API,
// with phase-aware engine selection.
//
//	go run ./examples/broker
//
// A miniature single-topic message broker: publishers assemble batches
// of message records in captured memory (tx.Alloc + fresh-provenance
// stores — the allocate-build-publish shape the paper optimizes) and
// link them into a shared ring; consumers share one group cursor and
// spend their whole transaction in contended read-modify-writes on
// definitely-shared words. The two regimes want opposite barrier
// engines, so the runtime declares a phase per regime (WithPhases) and
// each worker hints its regime with EnterPhase: publish transactions
// run on the capture-checking engine, consume transactions on the
// definitely-shared bypass that skips checks which can never elide.
// A final read-only audit walks the retained window under a third
// regime: the scan phase declares the read-mostly engine
// (WithReadMostly), whose transactions skip all write-path setup,
// validate shared reads against their snapshot instead of logging
// them, and would upgrade onto the full engine on a first shared
// store — the audit never stores, so its stats line shows zero
// upgrades.
// The printed per-phase statistics show the publish phase eliding most
// of its barriers and the cursor phase eliding none — the split the
// internal/scenarios/tmmsg workload measures at full scale.
package main

import (
	"fmt"
	"os"

	"repro/tm"
)

const (
	ringCap      = 64
	payloadWords = 8
	recSum       = 0 // message record: [0] checksum  [1..] payload
	recSize      = 1 + payloadWords
	batch        = 4
	batches      = 250 // per publisher
)

func main() {
	rt := tm.Open(
		tm.WithName("broker"),
		tm.WithRuntimeCapture(tm.StackAndHeap, tm.StackAndHeap),
		tm.WithLogKind(tm.LogTree),
		// One engine per regime: the publish phase inherits the capture
		// checks above; the cursor phase drops them (they cannot elide
		// anything there) and bypasses checks on definitely-shared
		// accesses instead.
		tm.WithPhases(
			tm.PhaseProfile(tm.PhasePublish),
			tm.PhaseProfile(tm.PhaseCursor,
				tm.WithRuntimeCapture(tm.NoChecks, tm.NoChecks),
				tm.WithSkipSharedChecks()),
			// Read-only audit: no write-path setup, no read logging; a
			// shared store (none here) would upgrade onto the full engine.
			tm.PhaseProfile(tm.PhaseScan, tm.WithReadMostly()),
		),
		tm.WithMemory(tm.MemConfig{
			GlobalWords: 1 << 10, HeapWords: 1 << 20, StackWords: 1 << 10, MaxThreads: 8,
		}),
	)
	defer rt.Close()

	// The topic state is definitely shared: the ring's message slots
	// and the head/tail/cursor sequences.
	ring := rt.AllocGlobal(ringCap)
	meta := rt.AllocGlobal(3)
	head, tail, cursor := meta.Word(0), meta.Word(1), meta.Word(2)

	// Phase 1 — batch publish from two producers. Every record is
	// allocated and filled inside its transaction; only the ring link
	// and the sequence bump touch shared words.
	rt.Parallel(2, func(th *tm.Thread, tid, _ int) {
		th.EnterPhase(tm.PhasePublish)
		for i := 0; i < batches; i++ {
			th.Atomic(func(tx *tm.Tx) {
				for m := 0; m < batch; m++ {
					rec := tx.Alloc(recSize) // captured: fresh provenance
					var sum uint64
					for j := 0; j < payloadWords; j++ {
						w := uint64(tid+1)*1_000_003 + uint64(i*batch+m)*31 + uint64(j)
						rec.Word(1+j).Store(tx, w) // elided store
						sum += w
					}
					rec.Word(recSum).Store(tx, sum)
					seq := head.Load(tx)
					if t := tail.Load(tx); seq-t == ringCap { // ring full: drop oldest
						tx.Free(ring.Ptr(int(t % ringCap)).Load(tx))
						tail.Store(tx, t+1)
					}
					ring.Ptr(int(seq%ringCap)).Store(tx, rec) // publish
					head.Store(tx, seq+1)
				}
			})
		}
	})

	// Phase 2 — two consumers sharing one group cursor: pure contended
	// read-modify-write on shared words, nothing captured.
	consumed := make([]int, 2)
	rt.Parallel(2, func(th *tm.Thread, tid, _ int) {
		th.EnterPhase(tm.PhaseCursor)
		for {
			var got, done bool
			th.Atomic(func(tx *tm.Tx) {
				got, done = false, false
				c := cursor.Load(tx)
				if t := tail.Load(tx); c < t {
					c = t // fell out of the retention window: skip ahead
				}
				if c == head.Load(tx) {
					done = true
					return
				}
				rec := ring.Ptr(int(c % ringCap)).Load(tx) // unknown provenance
				var sum uint64
				for j := 0; j < payloadWords; j++ {
					sum += rec.Word(1 + j).Load(tx) // full barrier
				}
				if sum != rec.Word(recSum).Load(tx) {
					fmt.Fprintln(os.Stderr, "broker: checksum mismatch")
					os.Exit(1)
				}
				cursor.Store(tx, c+1)
				got = true
			})
			if done {
				break
			}
			if got {
				consumed[tid]++
			}
		}
	})

	// Phase 3 — a read-only audit of the retained window: re-verify
	// every checksum still in the ring, one transaction per message.
	// The scan phase's read-mostly engine gives each transaction a
	// zero-cost begin and commit (no read set, write log, undo log, or
	// lock-restore map); nothing here stores, so no transaction ever
	// upgrades.
	t, h := tail.Peek(rt), head.Peek(rt)
	audited := 0
	rt.Parallel(1, func(th *tm.Thread, _, _ int) {
		th.EnterPhase(tm.PhaseScan)
		for c := t; c < h; c++ {
			th.Atomic(func(tx *tm.Tx) {
				rec := ring.Ptr(int(c % ringCap)).Load(tx)
				var sum uint64
				for j := 0; j < payloadWords; j++ {
					sum += rec.Word(1 + j).Load(tx)
				}
				if sum != rec.Word(recSum).Load(tx) {
					fmt.Fprintln(os.Stderr, "broker: audit checksum mismatch")
					os.Exit(1)
				}
			})
			audited++
		}
	})

	// The per-phase breakdown attributes each regime's barriers to the
	// engine that ran them — no ResetStats between phases needed.
	var pub, cur, scan tm.Stats
	for _, ps := range rt.Snapshot().Phases {
		switch ps.Kind {
		case tm.PhasePublish:
			pub = ps.Stats
		case tm.PhaseCursor:
			cur = ps.Stats
		case tm.PhaseScan:
			scan = ps.Stats
		}
	}
	report("publish (allocate-build-publish)", rt.EngineFor(tm.PhasePublish), pub)
	report("consume (shared cursor)", rt.EngineFor(tm.PhaseCursor), cur)
	report("scan (read-only audit)", rt.EngineFor(tm.PhaseScan), scan)
	fmt.Printf("%-34s %-10s %7d commits  %8d upgrades (read-only: none)\n",
		"", "", scan.Commits, scan.Upgrades)

	published := head.Peek(rt)
	retained := published - tail.Peek(rt)
	fmt.Printf("\npublished %d messages, retained %d, consumed %d (rest dropped by retention), audited %d\n",
		published, retained, consumed[0]+consumed[1], audited)
	if cur.ReadElHeap+cur.WriteElHeap != 0 {
		fmt.Fprintln(os.Stderr, "broker: consume phase should capture nothing")
		os.Exit(1)
	}
	if cur.ReadSkipShared == 0 {
		fmt.Fprintln(os.Stderr, "broker: cursor engine bypassed no definitely-shared checks")
		os.Exit(1)
	}
	if scan.Upgrades != 0 {
		fmt.Fprintln(os.Stderr, "broker: read-only audit upgraded off the read-mostly engine")
		os.Exit(1)
	}
	if scan.Commits == 0 {
		fmt.Fprintln(os.Stderr, "broker: audit committed nothing")
		os.Exit(1)
	}
}

// report prints the share of barriers the capture analysis removed in
// one phase, and the engine the phase compiled to.
func report(phase, engine string, s tm.Stats) {
	total := s.ReadTotal + s.WriteTotal
	elided := s.ReadElided() + s.WriteElided()
	fmt.Printf("%-34s %-10s %7d commits  %8d barriers  %5.1f%% elided\n",
		phase, engine, s.Commits, total, 100*float64(elided)/float64(total))
}
