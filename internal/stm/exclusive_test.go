package stm

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/wal"
)

// exclusiveConfigs is every configuration the exclusive pair must
// serve: the correctness matrix, its perf specializations, read-mostly
// and a phased profile.
func exclusiveConfigs() []OptConfig {
	cfgs := allConfigs()
	for _, c := range []OptConfig{Baseline(), Compiler(), RuntimeAll(), RuntimeHeapWrite()} {
		cfgs = append(cfgs, c.Perf())
	}
	rm := rmCfg()
	rm.Name = "perf-readmostly"
	phased := phasedBaseline()
	phased.Name = "phased"
	return append(cfgs, rm, phased)
}

// mustPanic runs fn and fails unless it panics with a message holding
// want.
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one naming %q", want)
		}
		if s, _ := r.(string); !strings.Contains(s, want) {
			t.Fatalf("panic %v, want one naming %q", r, want)
		}
	}()
	fn()
}

// exclusivePair reports whether th's transactions run the exclusive
// pair.
func exclusivePair(th *Thread) bool {
	return samePair(&engine{load: th.tx.load, store: th.tx.store},
		&engine{load: loadExclusive, store: storeExclusive})
}

// TestExclusiveQuiescentThreads: the scope runs beside created threads
// that are quiescent, refuses to start while one is inside a
// transaction, and panics at its exit when one ran a transaction inside
// it. While it runs it refuses the creation of any new thread and a
// second thread's scope; it refuses to start inside a transaction,
// nests, and ends with the phase's own pair back, after a panic too.
func TestExclusiveQuiescentThreads(t *testing.T) {
	rt := newRT(Baseline())
	th, other := rt.Thread(0), rt.Thread(1)
	g := rt.Space().AllocGlobal(2)
	other.Atomic(func(tx *Tx) { tx.Store(g, 1, AccShared) })
	other.Atomic(func(tx *Tx) {
		mustPanic(t, "Exclusive on thread 0 while thread 1 is inside a transaction", func() { th.Exclusive(func() {}) })
	})
	mustPanic(t, "thread 1 ran a transaction inside thread 0's Exclusive scope", func() {
		th.Exclusive(func() {
			other.Atomic(func(tx *Tx) { tx.Store(g+1, 2, AccShared) })
		})
	})
	if exclusivePair(th) {
		t.Fatal("a scope that panicked at its exit left the exclusive pair behind")
	}
	clock := rt.Clock()
	th.Exclusive(func() {
		if exclusivePair(other) {
			t.Error("a quiescent sibling took the exclusive pair")
		}
		mustPanic(t, "Exclusive on thread 1 inside thread 0's Exclusive scope", func() { other.Exclusive(func() {}) })
		th.Atomic(func(tx *Tx) { tx.Store(g, tx.Load(g, AccShared)+tx.Load(g+1, AccShared), AccShared) })
	})
	if rt.Clock() != clock || rt.Space().Load(g) != 3 {
		t.Fatalf("clock %d, word %d after a scope beside a quiescent thread: want %d and 3", rt.Clock(), rt.Space().Load(g), clock)
	}
	other.Atomic(func(tx *Tx) { tx.Store(g, tx.Load(g, AccShared)+1, AccShared) })
	if v := rt.Space().Load(g); v != 4 {
		t.Fatalf("the sibling's transaction after the scope left %d, want 4", v)
	}

	rt = newRT(Baseline())
	th = rt.Thread(0)
	th.Atomic(func(tx *Tx) {
		mustPanic(t, "inside a transaction", func() { th.Exclusive(func() {}) })
	})
	ran := false
	th.Exclusive(func() {
		if rt.Thread(0) != th {
			t.Error("Thread(0) inside its own scope is not the scope's thread")
		}
		mustPanic(t, "thread 1 created inside thread 0's Exclusive scope", func() { rt.Thread(1) })
		th.Exclusive(func() { ran = true })
		if !exclusivePair(th) {
			t.Error("the nested scope's exit dropped the exclusive pair")
		}
	})
	if !ran {
		t.Fatal("a nested scope did not run its function")
	}
	if exclusivePair(th) || !samePair(&engine{load: th.tx.load, store: th.tx.store}, rt.phases[0].eng) {
		t.Fatal("the default phase's pair is not back after the scope")
	}
	mustPanic(t, "boom", func() { th.Exclusive(func() { panic("boom") }) })
	if exclusivePair(th) {
		t.Fatal("a panicking scope left the exclusive pair behind")
	}
	if rt.Thread(1) == nil {
		t.Fatal("no thread created after the scope")
	}
}

// TestExclusiveBesideARunningThread: while another goroutine keeps a
// second thread transacting and switching phases, each scope on thread
// 0 either panics naming that thread, at its entry or at its exit, or
// runs; run under -race it also checks that the scope's precondition
// checks and the phase switches read the runtime's shared fields
// race-free.
func TestExclusiveBesideARunningThread(t *testing.T) {
	rt := newRT(phasedBaseline())
	th, other := rt.Thread(0), rt.Thread(1)
	g := rt.Space().AllocGlobal(2 * mem.LineWords)
	mine, theirs := g, g+mem.LineWords // a cache line each
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			other.EnterPhase([]string{"publish", "cursor", ""}[i%3])
			other.Atomic(func(tx *Tx) { tx.Store(theirs, tx.Load(theirs, AccShared)+1, AccShared) })
		}
	}()
	ran := 0
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		func() {
			defer func() {
				r := recover()
				if r == nil {
					return
				}
				if s, _ := r.(string); !strings.Contains(s, "thread 1") {
					panic(r)
				}
			}()
			th.Exclusive(func() {
				th.Atomic(func(tx *Tx) { tx.Store(mine, tx.Load(mine, AccShared)+1, AccShared) })
			})
		}()
		ran++
	}
	if got := rt.Space().Load(theirs); got != 2000 {
		t.Fatalf("the running thread's counter reads %d, want 2000", got)
	}
	if got := rt.Space().Load(mine); got == 0 || got > uint64(ran) {
		t.Fatalf("the scopes' counter reads %d after %d scopes", got, ran)
	}
}

// TestExclusiveWinsOverPhases: a phase switch inside the scope keeps the
// exclusive pair, and the scope's exit installs the phase it left the
// thread in.
func TestExclusiveWinsOverPhases(t *testing.T) {
	rt := newRT(phasedBaseline())
	th := rt.Thread(0)
	g := rt.Space().AllocGlobal(1)
	th.Exclusive(func() {
		for _, kind := range []string{"publish", "cursor", "", "publish"} {
			th.EnterPhase(kind)
			th.Atomic(func(tx *Tx) {
				tx.Store(g, tx.Load(g, AccShared)+1, AccShared)
				th.EnterPhase("cursor") // deferred to the boundary
			})
			if !exclusivePair(th) {
				t.Fatalf("phase %q: the exclusive pair lost to the phase's engine", th.Phase())
			}
		}
	})
	if th.Phase() != "cursor" || !samePair(&engine{load: th.tx.load, store: th.tx.store}, rt.phases[rt.phaseIdx["cursor"]].eng) {
		t.Fatalf("after the scope: phase %q, want the cursor phase's pair", th.Phase())
	}
	if rt.Clock() != 0 || rt.Space().Load(g) != 4 {
		t.Fatalf("clock %d, word %d: want 0 and 4", rt.Clock(), rt.Space().Load(g))
	}
}

// exclusiveWords is the number of shared words exclusiveScenario uses.
const exclusiveWords = 8

// exclusiveScenario runs a fixed mix of transactions on th over the
// shared words g[0..8): a commit over shared, fresh and stack words, a
// user abort and a nested partial abort over shared, fresh and stack
// words, a Restart, and a committed free. It checks every rollback.
func exclusiveScenario(t *testing.T, th *Thread, g mem.Addr) {
	t.Helper()
	at := func(i int) mem.Addr { return g + mem.Addr(i) }
	var p, r mem.Addr
	for i := 0; i < exclusiveWords; i++ {
		th.Store(at(i), 100+uint64(i))
	}
	th.Atomic(func(tx *Tx) {
		tx.Store(at(0), 1, AccShared)
		p = tx.Alloc(4)
		tx.Store(p, 7, AccFresh)
		tx.StoreAddr(at(1), p, AccShared)
		f := tx.StackAlloc(2)
		tx.Store(f, 3, AccFresh)
		tx.Store(at(2), tx.Load(f, AccFresh)+tx.Load(p, AccFresh), AccShared)
	})
	if th.Atomic(func(tx *Tx) {
		tx.Store(at(0), 99, AccShared)
		tx.Store(at(3), 99, AccShared)
		q := tx.Alloc(2)
		tx.Store(q, 1, AccFresh)
		// A profile that checks no stack undoes this store: the popped
		// frame must read what it reads with barriers.
		tx.Store(tx.StackAlloc(1), 4, AccFresh)
		tx.Free(p) // deferred, and dropped by the abort
		tx.UserAbort()
	}) {
		t.Fatal("user abort: Atomic returned true")
	}
	th.Atomic(func(tx *Tx) {
		tx.Store(at(4), 50, AccShared)
		r = tx.Alloc(3)
		tx.Store(r, 5, AccFresh)
		if th.Atomic(func(tx *Tx) {
			tx.Store(at(4), 51, AccShared)
			tx.Store(at(5), 51, AccShared)
			tx.Store(r, 6, AccFresh)
			tx.Store(tx.StackAlloc(1), 6, AccFresh)
			s := tx.Alloc(2)
			tx.Store(s, 9, AccFresh)
			tx.UserAbort()
		}) {
			t.Error("partial abort: nested Atomic returned true")
		}
		if a, b, c := tx.Load(at(4), AccShared), tx.Load(at(5), AccShared), tx.Load(r, AccFresh); a != 50 || b != 105 || c != 5 {
			t.Errorf("after the partial abort: %d %d %d, want 50 105 5", a, b, c)
		}
		tx.StoreAddr(at(6), r, AccShared)
	})
	th.Atomic(func(tx *Tx) {
		if tx.Attempt() == 1 {
			tx.Store(at(7), 77, AccShared)
			tx.Restart()
		}
		if v := tx.Load(at(7), AccShared); v != 107 {
			t.Errorf("after Restart: word 7 = %d, want 107", v)
		}
		tx.Store(at(7), 70, AccShared)
	})
	th.Atomic(func(tx *Tx) {
		q := tx.Alloc(2)
		tx.Store(q, 8, AccFresh)
		tx.Free(q) // reclaimed at once
	})
	space := th.rt.Space()
	want := []uint64{1, uint64(p), 10, 103, 50, 105, uint64(r), 70}
	for i, w := range want {
		if got := space.Load(at(i)); got != w {
			t.Errorf("word %d = %d, want %d", i, got, w)
		}
	}
	if space.Load(p) != 7 || space.Load(r) != 5 {
		t.Errorf("blocks hold %d and %d, want 7 and 5", space.Load(p), space.Load(r))
	}
}

// TestExclusiveRollsBackWithoutBarriers: inside the scope user aborts,
// partial aborts and Restart restore every word they must, under every
// configuration, with no orec, clock bump or full barrier; and the
// space ends bit-identical to the same scenario run with barriers.
func TestExclusiveRollsBackWithoutBarriers(t *testing.T) {
	for _, cfg := range exclusiveConfigs() {
		t.Run(cfg.Name, func(t *testing.T) {
			ref := newRT(cfg)
			exclusiveScenario(t, ref.Thread(0), ref.Space().AllocGlobal(exclusiveWords))
			if ref.Clock() == 0 {
				t.Fatal("the reference run bumped no clock")
			}

			rt := newRT(cfg)
			th := rt.Thread(0)
			th.Exclusive(func() { exclusiveScenario(t, th, rt.Space().AllocGlobal(exclusiveWords)) })
			if rt.Clock() != 0 {
				t.Errorf("clock %d after the scope, want 0", rt.Clock())
			}
			for i := range rt.orecs {
				if v := rt.orecs[i].Load(); v != 0 {
					t.Fatalf("orec %d = %#x after the scope, want 0", i, v)
				}
			}
			if s := rt.Stats(); s.ReadFull != 0 || s.WriteFull != 0 || s.Commits != 4 || s.Aborts != 1 || s.UserAborts != 1 {
				t.Errorf("stats %+v: want no full barrier, 4 commits, 1 abort, 1 user abort", s)
			}
			if got, want := rt.Space().Checksum(), ref.Space().Checksum(); got != want {
				t.Errorf("checksum %#x, want the barriered run's %#x", got, want)
			}
		})
	}
}

// recordWords is what replaying one redo record does: its kind, the
// allocation marks it restores, and the value it leaves in each word.
type recordWords struct {
	kind                  wal.Kind
	globalsNext, heapNext uint64
	words                 map[uint64]uint64
}

func replayWords(recs []wal.Record) []recordWords {
	out := make([]recordWords, len(recs))
	for i, rec := range recs {
		w := recordWords{rec.Kind, rec.GlobalsNext, rec.HeapNext, map[uint64]uint64{}}
		for _, sp := range rec.Spans {
			for j, v := range sp.Vals {
				w.words[sp.Addr+uint64(j)] = v
			}
		}
		out[i] = w
	}
	return out
}

// TestExclusiveDurableRecordsMatch: the scope's redo records are the
// records of the same transactions run with barriers, word for word:
// same kinds, same words, same values. (A word the scope takes as
// captured, such as a stack word under a profile that checks no stack,
// is carried by the record's stack or allocation span instead of an
// undo span too; the versions differ, since the scope bumps no clock.)
func TestExclusiveDurableRecordsMatch(t *testing.T) {
	for _, cfg := range exclusiveConfigs() {
		t.Run(cfg.Name, func(t *testing.T) {
			run := func(scoped bool) []recordWords {
				rt, log, dir := openDurableRT(t, cfg)
				th := rt.Thread(0)
				g := rt.Space().AllocGlobal(exclusiveWords)
				if scoped {
					th.Exclusive(func() { exclusiveScenario(t, th, g) })
				} else {
					exclusiveScenario(t, th, g)
				}
				return replayWords(readLog(t, log, dir))
			}
			want, got := run(false), run(true)
			if len(want) == 0 {
				t.Fatal("the scenario logged nothing")
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("scoped records differ:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}
