package stm

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/mem"
)

// The heap capture test (nursery runs in front of the allocation log)
// checked against an exact model of what it may report. The model is
// the transaction's own allocation history, kept by the test from the
// operations it performs:
//
//   - a payload word of a block this transaction allocated, and that no
//     rollback has undone, must be captured;
//   - a block this transaction allocated and freed again (dead) may
//     stay captured until the transaction ends, as may the header of a
//     block it allocated;
//   - every other word — a block of an earlier transaction, of another
//     thread, or of a rolled-back scope — must not be captured.
//
// The decision checked is the perf engine's own: a load that the
// engine elides appends nothing to the read set.

type blockState uint8

const (
	blockLive   blockState = iota
	blockDead              // freed at its own depth: on the free list
	blockUndone            // its scope rolled back
)

type modelBlock struct {
	addr  mem.Addr
	size  int
	depth int
	state blockState
}

// captureModel is one thread's view: mine are the current
// transaction's allocations in order, foreign every other live block
// the test knows of (earlier transactions, outside any transaction,
// another thread), and deferred the foreign or outer blocks whose free
// waits for commit.
type captureModel struct {
	mine     []modelBlock
	foreign  []foreignBlock
	deferred []mem.Addr
}

type foreignBlock struct {
	addr  mem.Addr
	size  int
	other bool // another thread's: this one never frees it
}

func (m *captureModel) dropForeign(p mem.Addr) {
	for i, f := range m.foreign {
		if f.addr == p {
			m.foreign = append(m.foreign[:i], m.foreign[i+1:]...)
			return
		}
	}
}

// expect classifies word w: must be captured, may be, or neither.
func (m *captureModel) expect(w mem.Addr) (must, may bool) {
	for _, b := range m.mine {
		end := b.addr + mem.Addr(b.size)
		switch b.state {
		case blockLive:
			if w >= b.addr && w < end {
				return true, true
			}
			if w == b.addr-1 {
				may = true
			}
		case blockDead:
			if w >= b.addr-1 && w < end {
				may = true
			}
		}
	}
	return false, may
}

// probes lists the words checked after each step: both edges, the
// header, the word past the end and two inner words of every block the
// model knows.
func (m *captureModel) probes(rng *rand.Rand) []mem.Addr {
	var ws []mem.Addr
	add := func(a mem.Addr, size int) {
		ws = append(ws, a-1, a, a+mem.Addr(size)-1, a+mem.Addr(size), a+mem.Addr(size/2), a+mem.Addr(rng.Intn(size)))
	}
	for _, b := range m.mine {
		add(b.addr, b.size)
	}
	for _, f := range m.foreign {
		add(f.addr, f.size)
	}
	return ws
}

// engineCaptures reports whether the perf engine elides a load of a: a
// full read appends to the read set, an elided one does not. The entry
// is dropped again so the read set never reaches its filter.
func engineCaptures(tx *Tx, a mem.Addr) bool {
	n := len(tx.readset)
	tx.load(tx, a, Acc{})
	elided := len(tx.readset) == n
	tx.readset = tx.readset[:n]
	return elided
}

// TestHeapCaptureMatchesModel drives random sequences of Alloc (small
// blocks, ones that force a span refill, jumbo and large blocks), Free,
// nested commits and partial aborts, top-level commits and user aborts,
// and blocks carved outside any transaction by this thread and another,
// and checks the model after every step.
func TestHeapCaptureMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			checkCaptureModel(t, seed, 24)
		})
	}
}

func checkCaptureModel(t *testing.T, seed int64, txns int) {
	cfg := testMemCfg()
	cfg.HeapWords = 1 << 21 // room for jumbo and large blocks
	rt := New(cfg, RuntimeAll().Perf())
	th, other := rt.Thread(0), rt.Thread(1)
	rng := rand.New(rand.NewSource(seed))
	m := &captureModel{}
	larges := 0

	size := func() int {
		switch r := rng.Intn(40); {
		case r < 24:
			return 1 + rng.Intn(48)
		case r < 36:
			return 50 + rng.Intn(950) // a span refill every few
		case r < 39:
			return 4097 + rng.Intn(4096) // jumbo: its own central carve
		default:
			if larges < 6 {
				larges++
				return 16385 + rng.Intn(2048) // large: never recycled
			}
			return 1 + rng.Intn(48)
		}
	}
	check := func(tx *Tx, where string) {
		t.Helper()
		for _, w := range m.probes(rng) {
			must, may := m.expect(w)
			got := engineCaptures(tx, w)
			if got != tx.alogContains(w) {
				t.Fatalf("%s: word %d: engine says %v, alogContains %v", where, w, got, !got)
			}
			if must && !got || got && !may {
				t.Fatalf("%s: word %d captured=%v, model must=%v may=%v (runs %+v, table range [%d,+%d))",
					where, w, got, must, may, tx.nursery, tx.allocLo, tx.allocSpan)
			}
		}
	}

	var body func(tx *Tx, steps int)
	body = func(tx *Tx, steps int) {
		for i := 0; i < steps; i++ {
			switch op := rng.Intn(10); {
			case op < 5:
				n := size()
				p := tx.Alloc(n)
				m.mine = append(m.mine, modelBlock{p, tx.th.alloc.BlockSize(p), tx.Depth(), blockLive})
				check(tx, fmt.Sprintf("after Alloc(%d) = %d", n, p))
			case op < 7 && len(m.mine)+len(m.foreign) > 0:
				// Free a live block of this transaction or a foreign block
				// of this thread, as the STM decides: at once when the
				// block is this depth's, at commit otherwise.
				var p mem.Addr
				mineOnly := true
				if j := rng.Intn(len(m.mine) + len(m.foreign)); j < len(m.mine) {
					p = m.mine[j].addr
				} else if f := m.foreign[j-len(m.mine)]; !f.other {
					p, mineOnly = f.addr, false
				}
				if p == mem.Nil || slices.Contains(m.deferred, p) {
					continue
				}
				k := len(m.mine) - 1
				for ; k >= 0 && !(m.mine[k].addr == p && m.mine[k].state == blockLive); k-- {
				}
				if k < 0 && mineOnly {
					continue // dead or undone
				}
				tx.Free(p)
				if k >= 0 && m.mine[k].depth == tx.Depth() {
					m.mine[k].state = blockDead
				} else {
					m.deferred = append(m.deferred, p)
				}
				check(tx, fmt.Sprintf("after Free(%d)", p))
			case op < 9 && tx.Depth() < 4:
				abort := rng.Intn(2) == 0
				mine, deferred := len(m.mine), len(m.deferred)
				tx.th.Atomic(func(tx *Tx) {
					body(tx, 1+rng.Intn(6))
					if abort {
						tx.UserAbort()
					}
				})
				if abort {
					for j := mine; j < len(m.mine); j++ {
						m.mine[j].state = blockUndone
					}
					m.deferred = m.deferred[:deferred]
				}
				check(tx, fmt.Sprintf("after nested %s", map[bool]string{true: "abort", false: "commit"}[abort]))
			}
		}
	}

	for round := 0; round < txns; round++ {
		// Outside any transaction: blocks of another thread and of this
		// one, carved between this thread's transactions.
		for j := rng.Intn(3); j > 0; j-- {
			p := other.Alloc(size())
			m.foreign = append(m.foreign, foreignBlock{p, other.alloc.BlockSize(p), true})
		}
		if j := rng.Intn(len(m.foreign) + 1); j < len(m.foreign) && m.foreign[j].other {
			other.Free(m.foreign[j].addr)
			m.dropForeign(m.foreign[j].addr)
		}
		if rng.Intn(3) == 0 {
			p := th.Alloc(1 + rng.Intn(48))
			m.foreign = append(m.foreign, foreignBlock{p, th.alloc.BlockSize(p), false})
		}

		abort := rng.Intn(5) == 0
		committed := th.Atomic(func(tx *Tx) {
			if tx.eng.name != "perf-rw-stack-heap-tree" {
				t.Fatalf("engine %q", tx.eng.name)
			}
			m.mine, m.deferred = m.mine[:0], m.deferred[:0]
			check(tx, "at begin")
			body(tx, 8+rng.Intn(24))
			if abort {
				tx.UserAbort()
			}
		})
		if committed == abort {
			t.Fatalf("round %d: Atomic = %v with abort %v", round, committed, abort)
		}
		if committed {
			for _, b := range m.mine {
				if b.state == blockLive {
					m.foreign = append(m.foreign, foreignBlock{b.addr, b.size, false})
				}
			}
			for _, p := range m.deferred {
				m.dropForeign(p)
			}
		}
		m.mine, m.deferred = m.mine[:0], m.deferred[:0]
		if tx := &th.tx; tx.nursery[0].span|tx.nursery[1].span != 0 || tx.allocSpan != 0 || tx.alog.Len() != 0 {
			t.Fatalf("round %d: runs %+v, table range %d, %d table entries after the transaction", round, tx.nursery, tx.allocSpan, tx.alog.Len())
		}
	}
	rt.Validate()
}
