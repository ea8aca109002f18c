// Annotations: the paper's Fig. 7 user APIs —
// addPrivateMemoryBlock/removePrivateMemoryBlock — on the bayes-style
// thread-local query-vector pattern from Fig. 1(b), written against
// the public tm API.
//
//	go run ./examples/annotations
//
// Each worker owns scratch vectors that live across transactions, so
// neither the runtime capture analysis (not transaction-local) nor the
// compiler (not provable) can elide their barriers. Annotating them as
// private can — exactly the case the paper reserves for programmer
// knowledge.
package main

import (
	"fmt"

	"repro/tm"
)

const vecLen = 64

func run(annotate bool) tm.Stats {
	rt := tm.Open(
		tm.WithName("annotations-demo"),
		tm.WithAnnotations(), // the runtime consults the private log
		tm.WithMemory(tm.MemConfig{
			GlobalWords: 1 << 8, HeapWords: 1 << 18, StackWords: 1 << 10, MaxThreads: 8,
		}),
	)
	defer rt.Close()
	shared := rt.AllocGlobal(1).Word(0)

	const threads, rounds = 4, 500
	rt.Parallel(threads, func(th *tm.Thread, tid, _ int) {
		// The thread-local query vector of the paper's Fig. 1(b):
		// allocated once, reused by every transaction. Its references
		// carry unknown provenance — only the programmer knows it is
		// private, which is what the annotation asserts.
		qv := th.Alloc(vecLen)
		if annotate {
			th.AddPrivateBlock(qv) // Fig. 7 API
			defer th.RemovePrivateBlock(qv)
		}
		for r := 0; r < rounds; r++ {
			th.Atomic(func(tx *tm.Tx) {
				// Populate and reduce the private vector; a naive
				// compiler instruments all of these accesses.
				var sum uint64
				for i := 0; i < vecLen; i++ {
					qv.Word(i).Store(tx, uint64(r+i))
				}
				for i := 0; i < vecLen; i++ {
					sum += qv.Word(i).Load(tx)
				}
				// One genuinely shared update.
				shared.Add(tx, sum%7)
			})
		}
	})
	return rt.Snapshot().Stats
}

func main() {
	plain := run(false)
	annotated := run(true)
	fmt.Println("bayes-style thread-local query vectors, 4 threads × 500 transactions:")
	fmt.Printf("  without annotations: %8d full barriers, %8d elided\n",
		plain.ReadFull+plain.WriteFull, plain.ReadElided()+plain.WriteElided())
	fmt.Printf("  with annotations:    %8d full barriers, %8d elided (%d reads, %d writes)\n",
		annotated.ReadFull+annotated.WriteFull,
		annotated.ReadElided()+annotated.WriteElided(),
		annotated.ReadElPriv, annotated.WriteElPriv)
	fmt.Println("\nAnnotated writes keep undo logging (live-in values must survive an")
	fmt.Println("abort) but skip ownership-record locking; reads skip everything.")
}
