package harness

import (
	"strings"
	"testing"

	"repro/tm"
)

// TestPhasedRunReportsPhaseRows pins the harness plumbing: a phased
// profile's Result carries the per-phase breakdown (snapshotted before
// Validate) and the "+phases" engine marker, and the tmmsg driver's
// hints actually land transactions in both declared phases.
func TestPhasedRunReportsPhaseRows(t *testing.T) {
	res, err := Run("tmmsg-sub", phased(tm.RuntimeAll(tm.LogTree)), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(res.Engine, "+phases") {
		t.Errorf("engine label %q lacks the +phases marker", res.Engine)
	}
	if len(res.PhaseStats) != 4 {
		t.Fatalf("PhaseStats rows = %d, want 4 (default, publish, cursor, scan)", len(res.PhaseStats))
	}
	var pub, cur tm.Stats
	for _, ps := range res.PhaseStats {
		switch ps.Kind {
		case tm.PhasePublish:
			pub = ps.Stats
		case tm.PhaseCursor:
			cur = ps.Stats
		}
	}
	if pub.Commits == 0 || cur.Commits == 0 {
		t.Errorf("phase rows not populated: publish %d commits, cursor %d commits",
			pub.Commits, cur.Commits)
	}
	// The regimes separate exactly as the capture report shows: the
	// publish phase elides captured-heap barriers, the cursor phase
	// (which allocates nothing) cannot.
	if pub.WriteElHeap == 0 {
		t.Error("publish phase elided no captured-heap writes")
	}
	if cur.WriteElHeap != 0 || cur.ReadElHeap != 0 {
		t.Errorf("cursor phase elided captured-heap barriers: %d reads, %d writes",
			cur.ReadElHeap, cur.WriteElHeap)
	}
	total := res.Stats
	var sum tm.Stats
	for _, ps := range res.PhaseStats {
		sum.Add(&ps.Stats)
	}
	if total != sum {
		t.Errorf("Stats %+v != sum of phase rows %+v", total, sum)
	}
	// An unphased profile reports no phase rows: the JSON field stays
	// absent and old reports keep diffing cleanly.
	plain, err := Run("ssca2", tm.Baseline(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.PhaseStats) != 0 {
		t.Errorf("unphased run carries %d phase rows", len(plain.PhaseStats))
	}
}
