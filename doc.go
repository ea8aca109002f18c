// Package repro reproduces "Optimizing Transactions for Captured
// Memory" (Dragojević, Ni, Adl-Tabatabai; SPAA 2009): a software
// transactional memory runtime with runtime and compiler capture
// analysis that elides STM barriers for transaction-local memory, the
// STAMP 0.9.9 benchmark suite it was evaluated on, and the harness
// that regenerates the tables and figures of the paper's evaluation.
//
// Start with package tm — the public API (typed references,
// functional options, and the workload registry) — and tm/bench, the
// experiment harness over it. See README.md for the repository layout
// and a quickstart. The benchmarks in bench_test.go regenerate the
// evaluation as text:
//
//	go test -bench=. -benchmem
//
// Performance claims are judged by one rig, the nested module in
// benchmark/ declared by BENCHMARK.json (README.md, "Measuring"):
//
//	bash benchmark/run.sh -workload stm-closed
package repro
