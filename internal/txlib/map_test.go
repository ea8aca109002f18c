package txlib

import (
	"fmt"
	"testing"

	"repro/internal/mem"
	"repro/internal/prng"
	"repro/internal/stm"
)

// refNode is a plain-Go AVL tree that fixes every ancestor on the way up
// (the textbook recursion). MapInsert/MapRemove stop fixing once a
// subtree keeps its height; TestMapAVLInvariants checks that this leaves
// exactly the tree the textbook recursion builds.
type refNode struct {
	key, val uint64
	l, r     *refNode
	h        int64
}

func refH(n *refNode) int64 {
	if n == nil {
		return 0
	}
	return n.h
}

func refRefresh(n *refNode) { n.h = 1 + max(refH(n.l), refH(n.r)) }

func refRotR(n *refNode) *refNode {
	l := n.l
	n.l, l.r = l.r, n
	refRefresh(n)
	refRefresh(l)
	return l
}

func refRotL(n *refNode) *refNode {
	r := n.r
	n.r, r.l = r.l, n
	refRefresh(n)
	refRefresh(r)
	return r
}

func refFix(n *refNode) *refNode {
	refRefresh(n)
	switch bal := refH(n.l) - refH(n.r); {
	case bal > 1:
		if refH(n.l.l) < refH(n.l.r) {
			n.l = refRotL(n.l)
		}
		return refRotR(n)
	case bal < -1:
		if refH(n.r.r) < refH(n.r.l) {
			n.r = refRotR(n.r)
		}
		return refRotL(n)
	}
	return n
}

func refInsert(n *refNode, key, val uint64) (*refNode, bool) {
	if n == nil {
		return &refNode{key: key, val: val, h: 1}, true
	}
	var ins bool
	switch {
	case key < n.key:
		n.l, ins = refInsert(n.l, key, val)
	case key > n.key:
		n.r, ins = refInsert(n.r, key, val)
	default:
		return n, false
	}
	if !ins {
		return n, false
	}
	return refFix(n), true
}

func refRemove(n *refNode, key uint64) (*refNode, bool) {
	if n == nil {
		return nil, false
	}
	var rem bool
	switch {
	case key < n.key:
		n.l, rem = refRemove(n.l, key)
	case key > n.key:
		n.r, rem = refRemove(n.r, key)
	default:
		if n.l == nil {
			return n.r, true
		}
		if n.r == nil {
			return n.l, true
		}
		s := n.r
		for s.l != nil {
			s = s.l
		}
		n.key, n.val = s.key, s.val
		n.r, _ = refRemove(n.r, s.key)
		rem = true
	}
	if !rem {
		return n, false
	}
	return refFix(n), true
}

// refShape renders a tree preorder as key:height with nil markers.
func refShape(n *refNode) string {
	if n == nil {
		return "."
	}
	return fmt.Sprintf("(%d:%d %s %s)", n.key, n.h, refShape(n.l), refShape(n.r))
}

// mapShape renders the simulated tree the same way, reading the space
// directly, and checks the AVL invariants on the way: every stored
// height is 1 + the taller child's, every balance is within ±1, and
// keys lie strictly inside (lo, hi). It returns the rendering, the node
// count and the subtree height.
func mapShape(t *testing.T, th *stm.Thread, n mem.Addr, lo, hi int64) (string, int, int64) {
	t.Helper()
	if n == mem.Nil {
		return ".", 0, 0
	}
	key := int64(th.Load(n + mnKey))
	if key <= lo || key >= hi {
		t.Fatalf("node %d: key %d outside (%d, %d)", n, key, lo, hi)
	}
	ls, lc, lh := mapShape(t, th, mem.Addr(th.Load(n+mnLeft)), lo, key)
	rs, rc, rh := mapShape(t, th, mem.Addr(th.Load(n+mnRight)), key, hi)
	h := int64(th.Load(n + mnHeight))
	if h != 1+max(lh, rh) {
		t.Fatalf("node %d (key %d): height %d, children %d and %d", n, key, h, lh, rh)
	}
	if d := lh - rh; d < -1 || d > 1 {
		t.Fatalf("node %d (key %d): balance %d", n, key, d)
	}
	return fmt.Sprintf("(%d:%d %s %s)", key, h, ls, rs), lc + rc + 1, h
}

// TestMapAVLInvariants runs random inserts and removes, some of them in
// nested transactions that abort, and after every top-level transaction
// checks the AVL invariants and that the tree is node for node the one
// the textbook recursion builds from the same committed operations.
func TestMapAVLInvariants(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rt := newTestRT()
			th := rt.Thread(0)
			var m mem.Addr
			th.Atomic(func(tx *stm.Tx) { m = NewMap(tx) })
			var ref *refNode
			size := 0
			r := prng.New(seed)
			for step := 0; step < 1000; step++ {
				// Up to four operations per transaction; each runs in a
				// nested transaction that aborts with probability 1/4,
				// which must leave no trace in the tree. One thread, so
				// no attempt retries and the reference moves in step.
				th.Atomic(func(tx *stm.Tx) {
					for i, ops := 0, 1+int(r.Next()%4); i < ops; i++ {
						key := r.Next() % 256
						insert := r.Next()%3 != 0
						abort := r.Next()%4 == 0
						var did bool
						th.Atomic(func(tx *stm.Tx) {
							if insert {
								did = MapInsert(tx, m, key, key*10, TM)
							} else {
								_, did = MapRemove(tx, m, key, TM)
							}
							if abort {
								tx.UserAbort()
							}
						})
						if abort {
							continue
						}
						if insert {
							var ok bool
							ref, ok = refInsert(ref, key, key*10)
							if ok != did {
								t.Fatalf("step %d: insert(%d) = %v, reference %v", step, key, did, ok)
							}
							if ok {
								size++
							}
						} else {
							var ok bool
							ref, ok = refRemove(ref, key)
							if ok != did {
								t.Fatalf("step %d: remove(%d) = %v, reference %v", step, key, did, ok)
							}
							if ok {
								size--
							}
						}
					}
				})
				got, n, _ := mapShape(t, th, mem.Addr(th.Load(m+mapRoot)), -1, 1<<62)
				if want := refShape(ref); got != want {
					t.Fatalf("step %d: tree\n%s\nwant\n%s", step, got, want)
				}
				if n != size {
					t.Fatalf("step %d: %d nodes, want %d", step, n, size)
				}
			}
			th.Atomic(func(tx *stm.Tx) {
				if got := MapSize(tx, m, TM); got != size {
					t.Errorf("MapSize = %d, want %d", got, size)
				}
			})
			rt.Validate()
		})
	}
}
