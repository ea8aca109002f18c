// Quickstart: the public tm API on the classic bank-transfer example.
//
//	go run ./examples/quickstart
//
// It opens a runtime with runtime capture analysis enabled, runs
// concurrent transfers between accounts, and prints the barrier
// statistics — showing the captured (transaction-local) accesses that
// the paper's optimization elides: each transfer allocates an audit
// record inside its transaction, and the typed references returned by
// tx.Alloc carry fresh provenance automatically.
package main

import (
	"fmt"
	"math/rand"

	"repro/tm"
)

func main() {
	rt := tm.Open(
		tm.WithName("quickstart"),
		tm.WithRuntimeCapture(tm.StackAndHeap, tm.StackAndHeap),
		tm.WithMemory(tm.MemConfig{
			GlobalWords: 1 << 10,
			HeapWords:   1 << 20,
			StackWords:  1 << 12,
			MaxThreads:  8,
		}),
	)
	defer rt.Close()

	// Accounts live in the globals region: definitely shared, so their
	// references carry shared provenance and keep full barriers.
	const accounts = 32
	const initial = 1000
	bank := rt.AllocGlobal(accounts)
	for i := 0; i < accounts; i++ {
		bank.Word(i).Poke(rt, initial)
	}
	// A shared audit-list head: each transfer prepends a record
	// allocated inside the transaction (captured memory!).
	auditHead := rt.AllocGlobal(1).Ptr(0)

	const threads, transfers = 4, 2000
	rt.Parallel(threads, func(th *tm.Thread, tid, _ int) {
		r := rand.New(rand.NewSource(int64(tid + 1)))
		for i := 0; i < transfers; i++ {
			from := r.Intn(accounts)
			to := r.Intn(accounts)
			amount := uint64(1 + r.Intn(10))
			th.Atomic(func(tx *tm.Tx) {
				f := bank.Word(from).Load(tx)
				if f < amount {
					return // insufficient funds; commit empty
				}
				bank.Word(from).Store(tx, f-amount)
				bank.Word(to).Add(tx, amount)

				// The audit record is transaction-local until commit:
				// its initializing stores need no barriers, and both
				// the runtime capture analysis and the compiler (via
				// the record's fresh provenance) elide them.
				rec := tx.Alloc(3)
				rec.Word(0).Store(tx, uint64(from))
				rec.Word(1).Store(tx, uint64(to))
				rec.Ptr(2).Store(tx, auditHead.Load(tx))
				auditHead.Store(tx, rec)
			})
		}
	})

	// Verify conservation and count audit records.
	var total uint64
	for i := 0; i < accounts; i++ {
		total += bank.Word(i).Peek(rt)
	}
	records := 0
	for p := auditHead.Peek(rt); !p.IsNil(); p = p.Ptr(2).Peek(rt) {
		records++
	}
	s := rt.Snapshot().Stats
	fmt.Printf("total money: %d (expected %d)\n", total, accounts*initial)
	fmt.Printf("audit records: %d\n", records)
	fmt.Printf("commits: %d, conflict aborts: %d\n", s.Commits, s.Aborts)
	fmt.Printf("write barriers: %d, elided as captured: %d (%.0f%%)\n",
		s.WriteTotal, s.WriteElided(), 100*float64(s.WriteElided())/float64(s.WriteTotal))
	if total != accounts*initial {
		panic("money not conserved")
	}
}
