package main

import "repro/tm"

// The ledger attributes one operation's time to layers from outside the
// program: probe costs × counted-pass counts for the barriers and the
// transaction bracket, the reference direct pass for the scenario's own
// work, probes of the calls a request makes into tm.Batcher, tm/serve
// and internal/wal, and a residual so the rows sum to the measured time
// per operation (1e9 × workers ÷ ops_per_s). The residual is what only
// spans inside the program can attribute (queue hand-off, park/wake,
// record building, cache effects, abort rework); ROADMAP item 5 should
// shrink it.

// barrierNs prices a counted pass's accesses with the probe costs. A
// full barrier under the capture profile also pays the capture check
// that missed (stm.read_miss_ns − stm.read_full_ns).
func barrierNs(st tm.Stats, pc probeCosts) float64 {
	check := max(0, pc.readMiss-pc.readFull)
	return float64(st.ReadFull)*(pc.readFull+check) +
		float64(st.WriteFull)*(pc.writeFull+check) +
		float64(st.ReadElHeap)*pc.readElHeap + float64(st.WriteElHeap)*pc.writeElHeap +
		float64(st.ReadElStack)*pc.readElStack + float64(st.WriteElStack)*pc.writeElStack
}

type ledgerIn struct {
	workers         int
	opsPerSec       float64
	refNsPerOp      float64  // reference pass: width-1 single-thread direct execution
	counted         tm.Stats // counted pass over countedOps operations
	countedOps      float64
	probes          probeCosts
	txnsPerOp       float64 // top-level transaction attempts per request in the measured run
	submitNs        float64 // served: time inside SubmitRequest per request
	walRecordsPerOp float64 // durable: redo records per request
}

func emitLedger(L map[string]float64, total, barrier, txn, scenario, srv, walNs float64) {
	residual := total - barrier - txn - scenario - srv - walNs
	L["ledger.barrier_ns_per_op"] = barrier
	L["ledger.txn_ns_per_op"] = txn
	L["ledger.scenario_ns_per_op"] = scenario
	L["ledger.serve_ns_per_op"] = srv
	L["ledger.wal_ns_per_op"] = walNs
	L["ledger.residual_ns_per_op"] = residual
	L["ledger.residual_share"] = residual / total
}

// kvLedger is the ledger of the kv workloads; an operation is one
// request. The scenario row is what the reference pass spends beyond
// its own barriers, transaction bracket and Admit call.
func kvLedger(L map[string]float64, in ledgerIn) {
	pc := in.probes
	barrier := barrierNs(in.counted, pc) / in.countedOps
	scenario := max(0, in.refNsPerOp-barrier-pc.txnEmpty-pc.admit)
	emitLedger(L, 1e9*float64(in.workers)/in.opsPerSec,
		barrier, pc.txnEmpty*in.txnsPerOp, scenario, pc.admit+in.submitNs, in.walRecordsPerOp*pc.walAppendAckNs)
}

// stmLedger is the ledger of stm-closed; an operation is one committed
// transaction and everything outside barriers and the bracket is
// residual (the applications' own work and contention).
func stmLedger(L map[string]float64, nsPerCommit float64, counted tm.Stats, pc probeCosts, attemptsPerCommit float64) {
	barrier := barrierNs(counted, pc) / float64(max(1, counted.Commits))
	emitLedger(L, nsPerCommit, barrier, pc.txnEmpty*attemptsPerCommit, 0, 0, 0)
}

// zeroLayer gives 0 to every declared per-layer metric the workload
// did not measure: the layer is bypassed, which is itself the finding.
func zeroLayer(L map[string]float64, names []string) {
	for _, name := range names {
		if _, ok := L[name]; !ok {
			L[name] = 0
		}
	}
}
