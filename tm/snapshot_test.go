package tm_test

import (
	"strings"
	"testing"

	"repro/tm"
)

func TestOpenErrConflicts(t *testing.T) {
	cases := []struct {
		name string
		opts []tm.Option
		want string // substring of the error; "" = must succeed
	}{
		{"clean baseline", nil, ""},
		{"readmostly alone", []tm.Option{tm.WithReadMostly()}, ""},
		{"counting alone", []tm.Option{tm.WithCounting()}, ""},
		{"readmostly under counting", []tm.Option{tm.WithReadMostly(), tm.WithCounting()}, "WithReadMostly"},
		{"readmostly under verify", []tm.Option{tm.WithReadMostly(), tm.WithVerifyElision()}, "WithReadMostly"},
		{"counting under perfmode", []tm.Option{tm.WithCounting(), tm.WithPerfMode()}, "WithCounting"},
		// VerifyElision implies Counting, and verify+perf is the supported
		// debug configuration — no error.
		{"verify under perfmode", []tm.Option{tm.WithVerifyElision(), tm.WithPerfMode()}, ""},
		{"conflict inside phase fragment", []tm.Option{
			tm.WithPhases(tm.PhaseProfile(tm.PhaseScan, tm.WithReadMostly(), tm.WithCounting())),
		}, `phase "scan"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := append([]tm.Option{smallMem()}, tc.opts...)
			rt, err := tm.OpenErr(opts...)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("OpenErr: %v, want success", err)
				}
				rt.Close()
				// Open must accept the same options by silent precedence.
				tm.Open(opts...).Close()
				return
			}
			if err == nil {
				rt.Close()
				t.Fatalf("OpenErr succeeded, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("OpenErr error %q does not mention %q", err, tc.want)
			}
			// The same combination must still open (by precedence) via Open.
			tm.Open(opts...).Close()
		})
	}
}

func TestSnapshotConsolidatesGetters(t *testing.T) {
	rt := tm.Open(smallMem(), tm.WithCounting(),
		tm.WithPhases(tm.PhaseProfile(tm.PhasePublish, tm.WithCompilerElision())))
	defer rt.Close()
	g := rt.AllocGlobal(4)
	th := rt.Thread(0)
	for i := 0; i < 10; i++ {
		th.Atomic(func(tx *tm.Tx) { g.Word(0).Store(tx, g.Word(0).Load(tx)+1) })
	}
	snap := rt.Snapshot()
	if snap.Engine != rt.Engine() {
		t.Errorf("Snapshot.Engine = %q, want %q", snap.Engine, rt.Engine())
	}
	if snap.Stats != rt.Unwrap().Stats() {
		t.Errorf("Snapshot.Stats = %+v, want %+v", snap.Stats, rt.Unwrap().Stats())
	}
	if want := rt.Unwrap().PhaseStats(); len(snap.Phases) != len(want) {
		t.Errorf("Snapshot.Phases rows = %d, want %d", len(snap.Phases), len(want))
	}
	if snap.Stats.Commits != 10 {
		t.Errorf("Snapshot.Stats.Commits = %d, want 10", snap.Stats.Commits)
	}
	if snap.Durability != nil {
		t.Errorf("Snapshot.Durability = %+v, want nil without WithDurability", snap.Durability)
	}
}

// TestSnapshotDurabilityBlock checks the durability counters with fsync
// and under DurNoFsync, where commits are durable in the page cache and
// the log runs no fsync batches.
func TestSnapshotDurabilityBlock(t *testing.T) {
	for _, noFsync := range []bool{false, true} {
		name, tune := "fsync", tm.DurOption(nil)
		if noFsync {
			name, tune = "nofsync", tm.DurNoFsync()
		}
		t.Run(name, func(t *testing.T) {
			rt := tm.Open(smallMem(), tm.WithDurability(t.TempDir(), tune))
			g := rt.AllocGlobal(1)
			th := rt.Thread(0)
			for i := 0; i < 5; i++ {
				th.Atomic(func(tx *tm.Tx) { g.Word(0).Store(tx, uint64(i)) })
			}
			if err := rt.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			snap := rt.Snapshot()
			d := snap.Durability
			if d == nil {
				t.Fatal("Snapshot.Durability is nil on a durable runtime")
			}
			if d.Records < 5 {
				t.Errorf("Durability.Records = %d, want >= 5", d.Records)
			}
			// Open writes the initial checkpoint, plus our explicit one.
			if d.Checkpoints < 2 {
				t.Errorf("Durability.Checkpoints = %d, want >= 2", d.Checkpoints)
			}
			if d.LogBytes == 0 || d.Segments == 0 {
				t.Errorf("Durability log counters zero: %+v", d)
			}
			if batched := d.Batches > 0 && d.Fsyncs > 0; batched == noFsync {
				t.Errorf("Durability.Batches = %d, Fsyncs = %d with noFsync %v", d.Batches, d.Fsyncs, noFsync)
			}
			if !rt.Durable() {
				t.Error("Durable() = false before Close")
			}
			if err := rt.Close(); err != nil {
				t.Fatal(err)
			}
			if rt.Durable() {
				t.Error("Durable() = true after Close")
			}
		})
	}
}

func TestRecoverErrors(t *testing.T) {
	if _, err := tm.Recover(t.TempDir()); err == nil {
		t.Fatal("Recover of an empty directory succeeded")
	}
}
