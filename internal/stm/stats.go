package stm

// Stats are per-thread counters. They are written only by the owning
// thread and read after the threads have joined, so they need no
// synchronization.
type Stats struct {
	// Transaction outcomes.
	Commits    uint64
	Aborts     uint64 // conflict aborts followed by retry (Table 1's metric)
	UserAborts uint64 // explicit user aborts (rolled back, not retried)

	// Upgrades counts read-mostly attempts that reached the full write
	// barrier and left unlogged mode (Tx.upgrade, barrier.go). Like
	// the outcome counters it is lifecycle accounting, kept under
	// PerfMode — the adaptive sampler demotes a read-mostly kind on it.
	Upgrades uint64

	// Waits counts conflicts where the contention manager imposed a
	// wait — a backoff spin, the none policy's engaged escalation, or a
	// queue park (cm.go); WaitNs is the time spent in those waits. Like
	// Aborts they are lifecycle accounting, kept under PerfMode and
	// attributed to the phase the conflicting transaction ran in.
	Waits  uint64
	WaitNs uint64

	// Barrier totals: every read/write access a naive STM compiler
	// would instrument inside a transaction, including those elided
	// statically or at runtime.
	ReadTotal  uint64
	WriteTotal uint64

	// Hand-instrumented accesses (the paper's "required" estimate).
	ReadManual  uint64
	WriteManual uint64

	// Runtime elisions, by mechanism.
	ReadElStack  uint64
	ReadElHeap   uint64
	ReadElPriv   uint64
	WriteElStack uint64
	WriteElHeap  uint64
	WriteElPriv  uint64

	// Static (compiler) elisions.
	ReadElStatic  uint64
	WriteElStatic uint64

	// Undo-log entries skipped by the baseline write-after-write
	// filter (not an elision of the barrier itself).
	WriteWAWSkips uint64

	// Read-set entries skipped by the read-after-read filter: full
	// reads that found an identical (orec, version) entry already
	// logged (logRead). Like WriteWAWSkips it is not a barrier elision.
	ReadRARSkips uint64

	// Full barriers actually executed.
	ReadFull  uint64
	WriteFull uint64

	// Runtime checks bypassed by the definitely-shared extension.
	ReadSkipShared  uint64
	WriteSkipShared uint64

	// Fig. 8 classification (Counting mode): how many accesses were
	// captured, by where the memory lives. Counted independently of
	// what the active configuration elides.
	ReadCapStack  uint64
	ReadCapHeap   uint64
	WriteCapStack uint64
	WriteCapHeap  uint64

	// Transactional allocator traffic.
	TxAllocs uint64
	TxFrees  uint64
}

// Add accumulates other into s.
func (s *Stats) Add(o *Stats) {
	s.Commits += o.Commits
	s.Aborts += o.Aborts
	s.UserAborts += o.UserAborts
	s.Upgrades += o.Upgrades
	s.Waits += o.Waits
	s.WaitNs += o.WaitNs
	s.ReadTotal += o.ReadTotal
	s.WriteTotal += o.WriteTotal
	s.ReadManual += o.ReadManual
	s.WriteManual += o.WriteManual
	s.ReadElStack += o.ReadElStack
	s.ReadElHeap += o.ReadElHeap
	s.ReadElPriv += o.ReadElPriv
	s.WriteElStack += o.WriteElStack
	s.WriteElHeap += o.WriteElHeap
	s.WriteElPriv += o.WriteElPriv
	s.ReadElStatic += o.ReadElStatic
	s.WriteElStatic += o.WriteElStatic
	s.WriteWAWSkips += o.WriteWAWSkips
	s.ReadRARSkips += o.ReadRARSkips
	s.ReadFull += o.ReadFull
	s.WriteFull += o.WriteFull
	s.ReadSkipShared += o.ReadSkipShared
	s.WriteSkipShared += o.WriteSkipShared
	s.ReadCapStack += o.ReadCapStack
	s.ReadCapHeap += o.ReadCapHeap
	s.WriteCapStack += o.WriteCapStack
	s.WriteCapHeap += o.WriteCapHeap
	s.TxAllocs += o.TxAllocs
	s.TxFrees += o.TxFrees
}

// ReadElided returns the total number of elided read barriers.
func (s *Stats) ReadElided() uint64 {
	return s.ReadElStack + s.ReadElHeap + s.ReadElPriv + s.ReadElStatic
}

// WriteElided returns the total number of elided write barriers.
func (s *Stats) WriteElided() uint64 {
	return s.WriteElStack + s.WriteElHeap + s.WriteElPriv + s.WriteElStatic
}

// AbortRatio returns aborts per commit (the paper's Table 1 metric).
func (s *Stats) AbortRatio() float64 {
	if s.Commits == 0 {
		return 0
	}
	return float64(s.Aborts) / float64(s.Commits)
}
