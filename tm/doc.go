// Package tm is the public transactional-memory API of this
// repository: an ergonomic, Go-idiomatic surface over the STM engine
// in internal/stm that implements "Optimizing Transactions for
// Captured Memory" (Dragojević, Ni, Adl-Tabatabai; SPAA 2009).
//
// The engine elides STM barriers for memory that is *captured* by the
// running transaction — allocated inside it, on its transactional
// stack, or annotated thread-private — either dynamically (runtime
// capture analysis) or statically (compiler-style provenance). This
// package makes those mechanisms usable without touching raw
// addresses or access descriptors.
//
// Open configures and creates a runtime with functional options:
//
//	rt := tm.Open(
//		tm.WithRuntimeCapture(tm.StackAndHeap, tm.StackAndHeap),
//	)
//
// Typed references (Word, Float, Ptr) and the Struct field view
// address the simulated space and carry their access provenance, so a
// reference obtained from Tx.Alloc is automatically treated as
// captured-fresh, one from Runtime.AllocGlobal as definitely shared,
// and one loaded through a Ptr as unknown:
//
//	th := rt.Thread(0)
//	th.Atomic(func(tx *tm.Tx) {
//		rec := tx.Alloc(2)         // captured: barrier-free stores
//		rec.Word(0).Store(tx, 42)
//		head.Ptr(0).Store(tx, rec) // shared: full barrier
//	})
//
// RegisterWorkload plugs external scenario packages into the same
// registry the STAMP benchmark ports use, so the harness, reports,
// and bench matrix (package tm/bench) run them identically.
//
// The STAMP evaluation tooling on top of this API lives in tm/bench
// (matrix runs and paper-style tables), cmd/stampbench, and
// cmd/barriers. Examples under examples/ are living documentation of
// this package.
package tm
