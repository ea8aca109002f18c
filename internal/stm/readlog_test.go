package stm

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/mem"
)

// The read-after-read filter (logRead) must never drop a validation:
// whatever it skips is an exact duplicate of a live read-set entry. The
// tests below hold it against a shadow log kept the way the unfiltered
// read set was — one entry per logged read, truncated and repaired by
// partial aborts exactly as abortNested does. The filter engages only
// once the read set holds rarFrom entries, so each transaction first
// reads one pad line that many times (unfiltered, each read appends).

// readLogLines is the number of lines the op stream addresses. They are
// chosen in pairs whose orecs differ but share a filter slot, so the
// stream keeps overwriting slots other orecs still point through.
const readLogLines = 32

type readLogRun struct {
	t      *testing.T
	rt     *Runtime
	th, fg *Thread // the transaction under test; a foreign committer
	pad    mem.Addr
	lines  []mem.Addr
	ops    []byte
	pos    int
	last   mem.Addr // most recently read address (op 6 re-reads it)
	shadow []readEntry
	have   map[readEntry]bool // check's working set
	stats  bool               // the profile keeps statistics (ReadRARSkips counts)

	// What the stream exercised: partial aborts, and checks at which
	// both logs failed validation.
	partial, invalid int
}

// newReadLogRun sets up a runtime with a 1024-entry orec table — so
// distinct orecs collide in the 512-slot filter — and picks the lines.
func newReadLogRun(t *testing.T, cfg OptConfig, ops []byte) *readLogRun {
	cfg.OrecBits = 10
	mc := testMemCfg()
	mc.GlobalWords = 1<<13 + 2*mem.LineWords
	rt := New(mc, cfg)
	pad := lineAligned(rt, mem.LineWords)
	g := rt.Space().AllocGlobal(1 << 13)
	slot := map[uint64]mem.Addr{} // filter slot → first line seen there
	var lines []mem.Addr
	for l := 0; l < (1<<13)/mem.LineWords && len(lines) < readLogLines; l++ {
		a := g + mem.Addr(l*mem.LineWords)
		oi := rt.orecIndex(a)
		s := oi & (rarSlots - 1)
		if prev, ok := slot[s]; ok {
			if rt.orecIndex(prev) != oi {
				lines = append(lines, prev, a)
				delete(slot, s)
			}
			continue
		}
		slot[s] = a
	}
	if len(lines) != readLogLines {
		t.Fatalf("found %d colliding lines, want %d", len(lines), readLogLines)
	}
	return &readLogRun{t: t, rt: rt, th: rt.Thread(0), fg: rt.Thread(1), pad: pad, lines: lines, ops: ops,
		stats: !cfg.PerfMode}
}

// run executes the op stream as one top-level transaction (retried on
// conflict from the first op, after the pad reads), then checks that no
// orec leaked.
func (r *readLogRun) run() {
	r.th.Atomic(func(tx *Tx) {
		r.pos, r.last, r.shadow = 0, r.lines[0], r.shadow[:0]
		for i := 0; i < rarFrom; i++ {
			r.read(tx, r.pad)
		}
		r.interpret(tx)
	})
	r.rt.Validate()
}

// interpret runs ops until the stream ends or, inside a nested
// transaction, until an end op. Each byte is one op: the top three bits
// pick it, the low five pick a line.
func (r *readLogRun) interpret(tx *Tx) {
	for r.pos < len(r.ops) {
		b := r.ops[r.pos]
		r.pos++
		a := r.lines[int(b&31)] + mem.Addr(r.pos%mem.LineWords)
		switch b >> 5 {
		case 0, 1:
			r.read(tx, a)
		case 6:
			r.read(tx, r.last)
		case 2:
			tx.Store(a, uint64(r.pos), AccShared)
		case 3:
			// A foreign commit to a line tx has not locked: it makes
			// tx's entries for that orec stale. Only in early attempts,
			// so the transaction cannot livelock on its own stream.
			oi := r.rt.orecIndex(a)
			if w := r.rt.orecs[oi].Load(); tx.Attempt() <= 2 && !orecLocked(w) {
				r.fg.Atomic(func(ftx *Tx) { ftx.Store(a, uint64(r.pos)+1000, AccShared) })
			}
		case 4:
			if tx.Depth() < 4 {
				r.nested(tx)
			}
		case 5:
			if tx.Depth() > 1 {
				if b&1 == 1 {
					tx.UserAbort()
				}
				return
			}
		case 7:
			r.read(tx, a)
			r.read(tx, a)
		}
		r.check(tx)
	}
}

// nested runs a nested transaction and mirrors a partial abort on the
// shadow: entries for the orecs the scope released take the fresh
// version, then the shadow truncates to the savepoint.
func (r *readLogRun) nested(tx *Tx) {
	save := len(r.shadow)
	saveWrites := len(tx.writes)
	var released []uint64
	ok := r.th.Atomic(func(tx *Tx) {
		defer func() {
			for _, w := range tx.writes[saveWrites:] {
				released = append(released, w.oi)
			}
		}()
		r.interpret(tx)
	})
	if ok {
		return
	}
	r.partial++
	for i := range r.shadow {
		for _, oi := range released {
			if r.shadow[i].oi == oi {
				r.shadow[i].v = r.rt.orecs[oi].Load()
			}
		}
	}
	r.shadow = r.shadow[:save]
}

// read loads a and extends the shadow as the unfiltered log would have:
// one entry unless the orec is ours (read-after-write in place).
func (r *readLogRun) read(tx *Tx, a mem.Addr) {
	r.last = a
	n, skips := len(tx.readset), r.th.stats.ReadRARSkips
	tx.Load(a, AccShared)
	oi := r.rt.orecIndex(a)
	w := r.rt.orecs[oi].Load()
	if orecLocked(w) && orecOwner(w) == r.th.id {
		if len(tx.readset) != n {
			r.t.Fatalf("op %d: read-after-write logged a read", r.pos)
		}
		return
	}
	e := readEntry{oi, w}
	r.shadow = append(r.shadow, e)
	grew, skipped := len(tx.readset)-n, int(r.th.stats.ReadRARSkips-skips)
	switch {
	case grew == 1 && tx.readset[n] == e && (!r.stats || skipped == 0):
	case grew == 0 && (!r.stats || skipped == 1) && r.logged(tx, e):
	default:
		r.t.Fatalf("op %d: read of orec %d grew the log by %d, %d skips counted", r.pos, oi, grew, skipped)
	}
}

func (r *readLogRun) logged(tx *Tx, e readEntry) bool {
	for _, x := range tx.readset {
		if x == e {
			return true
		}
	}
	return false
}

// check compares the filtered read set with the shadow: it must be a
// subsequence of the shadow holding every distinct shadow entry, and
// validate must reach the same verdict on both. Below rarFrom entries
// nothing is filtered, so the pad prefix must match entry for entry;
// the set comparison then runs over what follows it.
func (r *readLogRun) check(tx *Tx) {
	if len(tx.readset) < rarFrom || !slices.Equal(tx.readset[:rarFrom], r.shadow[:rarFrom]) {
		r.t.Fatalf("op %d: the unfiltered prefix of the read set differs from the shadow's", r.pos)
	}
	fr, sh := tx.readset[rarFrom:], r.shadow[rarFrom:]
	j := 0
	for _, e := range sh {
		if j < len(fr) && fr[j] == e {
			j++
		}
	}
	if j != len(fr) {
		r.t.Fatalf("op %d: read set (%d entries) is not a subsequence of the unfiltered log (%d)",
			r.pos, len(tx.readset), len(r.shadow))
	}
	if r.have == nil {
		r.have = make(map[readEntry]bool)
	}
	clear(r.have)
	for _, e := range fr {
		r.have[e] = true
	}
	for _, e := range sh {
		if !r.have[e] && !r.logged(tx, e) {
			r.t.Fatalf("op %d: shadow entry %+v missing from the read set", r.pos, e)
		}
	}
	filtered := tx.validate(r.rt)
	tx.readset, r.shadow = r.shadow, tx.readset
	unfiltered := tx.validate(r.rt)
	tx.readset, r.shadow = r.shadow, tx.readset
	if filtered != unfiltered {
		r.t.Fatalf("op %d: validate = %v on the filtered read set, %v on the unfiltered one", r.pos, filtered, unfiltered)
	}
	if !filtered {
		r.invalid++
	}
}

// TestReadFilterMatchesUnfilteredLog drives random op streams — reads,
// re-reads, writes, foreign commits, nested commits and partial aborts,
// retries — and after every op holds the filtered read set against the
// unfiltered shadow, under both the counting and the perf chain.
func TestReadFilterMatchesUnfilteredLog(t *testing.T) {
	for _, chain := range []struct {
		name string
		cfg  OptConfig
	}{{"counting", Baseline()}, {"perf", Baseline().Perf()}} {
		t.Run(chain.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			var skips, aborts uint64
			var partial, invalid int
			for i := 0; i < 60; i++ {
				ops := make([]byte, 160)
				rng.Read(ops)
				r := newReadLogRun(t, chain.cfg, ops)
				r.run()
				s := r.rt.Stats()
				skips += s.ReadRARSkips
				aborts += s.Aborts
				partial += r.partial
				invalid += r.invalid
			}
			// The streams must exercise what the test is about.
			if chain.cfg.PerfMode != (skips == 0) {
				t.Errorf("%d filter skips counted", skips)
			}
			if aborts == 0 || partial == 0 || invalid == 0 {
				t.Errorf("%d retries, %d partial aborts, %d failing validations; want each > 0", aborts, partial, invalid)
			}
		})
	}
}

// FuzzReadLog is TestReadFilterMatchesUnfilteredLog over a fuzzed op
// stream.
func FuzzReadLog(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0x20, 0xc0, 0x80, 0, 0xc0})                // reads, re-reads
	f.Add([]byte{0, 0x61, 0, 0xe0, 0x40, 0x01, 0x21, 0xa1, 0, 0x01}) // foreign commit, nested abort
	f.Add([]byte{0x80, 0, 0x40, 0, 0xa0, 0, 0x80, 0x41, 0xa1, 0x00})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		newReadLogRun(t, Baseline(), ops).run()
	})
}

// lineAligned allocates n global words starting on a line boundary.
func lineAligned(rt *Runtime, n int) mem.Addr {
	g := rt.Space().AllocGlobal(n + mem.LineWords - 1)
	return (g + mem.LineWords - 1) / mem.LineWords * mem.LineWords
}

// TestRereadStillConflicts: re-reads a filter skips must not hide a
// conflict. T1 reads one line a hundred times (one entry logged), T2
// commits a write to it, and T1 — which does not read the line again —
// must fail commit-time validation on that one entry and retry.
func TestRereadStillConflicts(t *testing.T) {
	mc := testMemCfg()
	mc.GlobalWords = (rarFrom + 4) * mem.LineWords
	rt := New(mc, Baseline())
	t1, t2 := rt.Thread(0), rt.Thread(1)
	pad := lineAligned(rt, rarFrom*mem.LineWords)
	g := lineAligned(rt, 2*mem.LineWords)
	out := g + mem.LineWords // a different line, so T1 commits with a write
	attempts := 0
	t1.Atomic(func(tx *Tx) {
		attempts++
		for i := 0; i < rarFrom; i++ {
			tx.Load(pad+mem.Addr(i*mem.LineWords), AccShared) // engage the filter
		}
		seen := tx.Load(g, AccShared)
		for i := 1; i < 100; i++ {
			tx.Load(g+mem.Addr(i%mem.LineWords), AccShared)
		}
		if got := len(tx.readset) - rarFrom; got != 1 {
			t.Errorf("attempt %d: %d read-set entries for 100 reads of one line, want 1", attempts, got)
		}
		if attempts == 1 {
			t2.Atomic(func(tx2 *Tx) { tx2.Store(g, 7, AccShared) })
		}
		tx.Store(out, seen, AccShared)
	})
	if attempts != 2 {
		t.Fatalf("T1 committed after %d attempts, want 2 (the first must fail validation)", attempts)
	}
	if got := rt.Space().Load(out); got != 7 {
		t.Errorf("T1 copied %d, want T2's 7", got)
	}
	if s := t1.Stats(); s.ReadRARSkips != 2*99 {
		t.Errorf("ReadRARSkips = %d, want %d", s.ReadRARSkips, 2*99)
	}
	rt.Validate()
}

// TestLongReadOnlyLogsLines: a read-only transaction of 1 Mi reads over
// 64 Ki lines (each line read 16 times in a row) logs one entry per
// line past the filter's first rarFrom entries, so what it holds
// follows the lines it reads, not its reads.
func TestLongReadOnlyLogsLines(t *testing.T) {
	const lines = 1 << 16
	mc := testMemCfg()
	mc.GlobalWords = lines*mem.LineWords + 64
	rt := New(mc, Baseline().Perf())
	g := lineAligned(rt, lines*mem.LineWords)
	th := rt.Thread(0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var logged, held int
	th.Atomic(func(tx *Tx) {
		for l := 0; l < lines; l++ {
			base := g + mem.Addr(l*mem.LineWords)
			for i := 0; i < 16; i++ {
				tx.Load(base+mem.Addr(i%mem.LineWords), AccShared)
			}
		}
		logged, held = len(tx.readset), cap(tx.readset)
	})
	runtime.ReadMemStats(&after)
	if logged > lines+rarFrom {
		t.Errorf("logged %d entries for %d lines", logged, lines)
	}
	// The log's backing array is what stays resident; growing it by
	// append also allocated the smaller arrays it outgrew, a geometric
	// series of about five times the final size.
	const entry = 16
	if b := held * entry; b > 2<<20 {
		t.Errorf("read set holds %d B, want ≤ 2 MiB", b)
	}
	t.Logf("%d entries, %d B held, %d B allocated", logged, held*entry, after.TotalAlloc-before.TotalAlloc)
	if b := after.TotalAlloc - before.TotalAlloc; b > 8<<20 {
		t.Errorf("transaction allocated %d B, want ≤ 8 MiB (unfiltered: ≈ 80 MiB)", b)
	}
}
