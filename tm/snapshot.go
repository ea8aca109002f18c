package tm

import (
	"errors"
	"fmt"

	"repro/internal/stm"
)

// Snapshot is the consolidated observability view of a Runtime: totals,
// per-phase rows and durability counters in one struct. Take it after
// worker threads have joined.
type Snapshot struct {
	// Engine names the compiled barrier engine (with a "+phases" marker
	// when phases are declared).
	Engine string
	// Stats sums every thread's counters across all phases.
	Stats Stats
	// Phases is the per-phase breakdown: index 0 is the default phase,
	// declared phases follow in declaration order. Always at least one
	// row.
	Phases []PhaseStats
	// Durability carries the redo-log and checkpoint counters, nil when
	// the runtime was opened without WithDurability.
	Durability *DurabilityStats
}

// DurabilityStats flattens the redo-log and checkpoint-store counters.
type DurabilityStats struct {
	Records  uint64 // redo records appended
	LogBytes uint64 // log bytes appended
	Batches  uint64 // group-commit fsync batches (none under DurNoFsync)
	Fsyncs   uint64 // fdatasync calls on log segments
	Segments uint64 // log segment files created

	// The words records carry, by source, counted once per record.
	UndoWords       uint64 // undo-logged addresses, one one-word span each
	AllocWords      uint64 // allocation-log blocks, carried whole (header words included)
	AllocFreedWords uint64 // the part of AllocWords in blocks freed by the same transaction
	StackWords      uint64 // the transaction-local stack region

	Checkpoints   uint64 // checkpoints written
	ChunksWritten uint64 // content-addressed chunks appended to packs
	ChunksDeduped uint64 // chunks skipped because their score was stored
	PackBytes     uint64 // pack bytes appended
	ChunksHashed  uint64 // chunks read off the live space, found non-zero and SHA-256 scored
	ChunksZero    uint64 // chunks recorded as zero: above a bump pointer (unread) or read as all zero
}

// Snapshot returns the consolidated observability view.
func (rt *Runtime) Snapshot() Snapshot {
	return Snapshot{
		Engine:     rt.rt.Engine(),
		Stats:      rt.rt.Stats(),
		Phases:     rt.rt.PhaseStats(),
		Durability: rt.durabilityStats(),
	}
}

// conflicts reports the option combinations Open resolves by silent
// precedence. Each check runs on the base configuration and on every
// phase fragment's compiled configuration, since a fragment can
// introduce the same clash.
func (s *settings) conflicts() error {
	var errs []error
	check := func(where string, cfg *stm.OptConfig) {
		ctx := ""
		if where != "" {
			ctx = fmt.Sprintf(" (phase %q)", where)
		}
		if cfg.ReadMostly && (cfg.Counting || cfg.VerifyElision) {
			errs = append(errs, fmt.Errorf("tm: WithReadMostly is dropped under WithCounting/WithVerifyElision, whose oracles need the instrumented chain%s", ctx))
		}
		if cfg.Counting && cfg.PerfMode && !cfg.VerifyElision {
			errs = append(errs, fmt.Errorf("tm: WithCounting classification is disabled by WithPerfMode (the counters live in the instrumented chain)%s", ctx))
		}
	}
	check("", &s.cfg)
	for i := range s.cfg.Phases {
		ph := &s.cfg.Phases[i]
		check(ph.Kind, &ph.Cfg)
	}
	return errors.Join(errs...)
}
