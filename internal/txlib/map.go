package txlib

import (
	"repro/internal/mem"
	"repro/internal/stm"
)

// Map is an ordered map from uint64 keys to one data word, implemented
// as an AVL tree in simulated memory. STAMP's MAP_T is a red-black
// tree; an AVL tree has the same O(log n) pointer-chasing access
// pattern and rebalancing writes, which is what the barrier-mix
// experiments depend on (the substitution is recorded in DESIGN.md).
//
// Layout:
//
//	header: [0] root
//	node:   [0] key  [1] val  [2] left  [3] right  [4] height
//
// The header holds no size word: like STAMP's rbtree, a mutation
// writes only the nodes it restructures, and the root word only when
// the root changes, so concurrent updates to disjoint parts of a map
// do not all conflict on the header. MapSize walks the tree instead.
const (
	mapRoot = 0
	mapHdr  = 1

	mnKey    = 0
	mnVal    = 1
	mnLeft   = 2
	mnRight  = 3
	mnHeight = 4
	mnSize   = 5
)

// NewMap allocates an empty map inside the transaction.
func NewMap(tx *stm.Tx) mem.Addr {
	m := tx.Alloc(mapHdr)
	tx.Store(m+mapRoot, 0, stm.AccFresh)
	return m
}

// MapSize returns the number of entries. It visits every node, so it
// belongs in validation and reporting, not in hot transactions.
func MapSize(tx *stm.Tx, m mem.Addr, mode stm.Acc) int {
	var count func(n mem.Addr) int
	count = func(n mem.Addr) int {
		if n == mem.Nil {
			return 0
		}
		return 1 + count(tx.LoadAddr(n+mnLeft, mode)) + count(tx.LoadAddr(n+mnRight, mode))
	}
	return count(tx.LoadAddr(m+mapRoot, mode))
}

func mheight(tx *stm.Tx, n mem.Addr, mode stm.Acc) int64 {
	if n == mem.Nil {
		return 0
	}
	return int64(tx.Load(n+mnHeight, mode))
}

// mfix restores n's height and AVL balance after one of its subtrees
// changed height, and returns the subtree's new root plus whether the
// subtree's height differs from n's height before the fix. Callers stop
// calling it on the way up once that is false: an ancestor whose child
// kept its height keeps its own height and balance, so fixing it would
// change nothing.
func mfix(tx *stm.Tx, n mem.Addr, mode stm.Acc) (mem.Addr, bool) {
	l := tx.LoadAddr(n+mnLeft, mode)
	r := tx.LoadAddr(n+mnRight, mode)
	hl, hr := mheight(tx, l, mode), mheight(tx, r, mode)
	h := hl
	if hr > h {
		h = hr
	}
	// Store only when the height actually changes: rebalancing writes
	// are O(1) amortized, like STAMP's red-black tree.
	old := int64(tx.Load(n+mnHeight, mode))
	if old != h+1 {
		tx.Store(n+mnHeight, uint64(h+1), mode)
	}
	switch bal := hl - hr; {
	case bal > 1:
		ll := tx.LoadAddr(l+mnLeft, mode)
		lr := tx.LoadAddr(l+mnRight, mode)
		if mheight(tx, ll, mode) < mheight(tx, lr, mode) {
			nl, _ := mrotL(tx, l, mode)
			tx.StoreAddr(n+mnLeft, nl, mode)
		}
		root, rh := mrotR(tx, n, mode)
		return root, rh != old
	case bal < -1:
		rl := tx.LoadAddr(r+mnLeft, mode)
		rr := tx.LoadAddr(r+mnRight, mode)
		if mheight(tx, rr, mode) < mheight(tx, rl, mode) {
			nr, _ := mrotR(tx, r, mode)
			tx.StoreAddr(n+mnRight, nr, mode)
		}
		root, rh := mrotL(tx, n, mode)
		return root, rh != old
	}
	return n, h+1 != old
}

// mrefresh recomputes n's height from its children and returns it.
func mrefresh(tx *stm.Tx, n mem.Addr, mode stm.Acc) int64 {
	hl := mheight(tx, tx.LoadAddr(n+mnLeft, mode), mode)
	hr := mheight(tx, tx.LoadAddr(n+mnRight, mode), mode)
	if hr > hl {
		hl = hr
	}
	if tx.Load(n+mnHeight, mode) != uint64(hl+1) {
		tx.Store(n+mnHeight, uint64(hl+1), mode)
	}
	return hl + 1
}

// mrotR rotates n right and returns the new subtree root and its height.
func mrotR(tx *stm.Tx, n mem.Addr, mode stm.Acc) (mem.Addr, int64) {
	l := tx.LoadAddr(n+mnLeft, mode)
	tx.StoreAddr(n+mnLeft, tx.LoadAddr(l+mnRight, mode), mode)
	tx.StoreAddr(l+mnRight, n, mode)
	mrefresh(tx, n, mode)
	return l, mrefresh(tx, l, mode)
}

// mrotL rotates n left and returns the new subtree root and its height.
func mrotL(tx *stm.Tx, n mem.Addr, mode stm.Acc) (mem.Addr, int64) {
	r := tx.LoadAddr(n+mnRight, mode)
	tx.StoreAddr(n+mnRight, tx.LoadAddr(r+mnLeft, mode), mode)
	tx.StoreAddr(r+mnLeft, n, mode)
	mrefresh(tx, n, mode)
	return r, mrefresh(tx, r, mode)
}

// MapInsert inserts key→val. It returns false (and leaves the map
// unchanged) if the key is already present.
func MapInsert(tx *stm.Tx, m mem.Addr, key, val uint64, mode stm.Acc) bool {
	root := tx.LoadAddr(m+mapRoot, mode)
	newRoot, inserted, _ := mapInsert(tx, root, key, val, mode)
	if newRoot != root {
		tx.StoreAddr(m+mapRoot, newRoot, mode)
	}
	return inserted
}

// mapInsert inserts into the subtree at n and returns its new root,
// whether the key was inserted, and whether the subtree's height grew.
func mapInsert(tx *stm.Tx, n mem.Addr, key, val uint64, mode stm.Acc) (mem.Addr, bool, bool) {
	if n == mem.Nil {
		nn := tx.Alloc(mnSize)
		tx.Store(nn+mnKey, key, stm.AccFresh)
		tx.Store(nn+mnVal, val, stm.AccFresh)
		tx.StoreAddr(nn+mnLeft, 0, stm.AccFresh)
		tx.StoreAddr(nn+mnRight, 0, stm.AccFresh)
		tx.Store(nn+mnHeight, 1, stm.AccFresh)
		return nn, true, true
	}
	k := tx.Load(n+mnKey, mode)
	var side mem.Addr = mnLeft
	switch {
	case key > k:
		side = mnRight
	case key == k:
		return n, false, false
	}
	old := tx.LoadAddr(n+side, mode)
	child, ins, grew := mapInsert(tx, old, key, val, mode)
	if !ins {
		return n, false, false
	}
	if child != old {
		tx.StoreAddr(n+side, child, mode)
	}
	if !grew {
		return n, true, false
	}
	root, grew := mfix(tx, n, mode)
	return root, true, grew
}

// MapGet returns the value stored under key.
func MapGet(tx *stm.Tx, m mem.Addr, key uint64, mode stm.Acc) (uint64, bool) {
	n := tx.LoadAddr(m+mapRoot, mode)
	for n != mem.Nil {
		k := tx.Load(n+mnKey, mode)
		switch {
		case key < k:
			n = tx.LoadAddr(n+mnLeft, mode)
		case key > k:
			n = tx.LoadAddr(n+mnRight, mode)
		default:
			return tx.Load(n+mnVal, mode), true
		}
	}
	return 0, false
}

// MapContains reports whether key is present.
func MapContains(tx *stm.Tx, m mem.Addr, key uint64, mode stm.Acc) bool {
	_, ok := MapGet(tx, m, key, mode)
	return ok
}

// MapSet updates the value under an existing key or inserts it.
func MapSet(tx *stm.Tx, m mem.Addr, key, val uint64, mode stm.Acc) {
	n := tx.LoadAddr(m+mapRoot, mode)
	for n != mem.Nil {
		k := tx.Load(n+mnKey, mode)
		switch {
		case key < k:
			n = tx.LoadAddr(n+mnLeft, mode)
		case key > k:
			n = tx.LoadAddr(n+mnRight, mode)
		default:
			tx.Store(n+mnVal, val, mode)
			return
		}
	}
	MapInsert(tx, m, key, val, mode)
}

// MapRemove deletes key, returning its value. The freed node is
// reclaimed transactionally.
func MapRemove(tx *stm.Tx, m mem.Addr, key uint64, mode stm.Acc) (uint64, bool) {
	root := tx.LoadAddr(m+mapRoot, mode)
	newRoot, val, removed, _ := mapRemove(tx, root, key, mode)
	if newRoot != root {
		tx.StoreAddr(m+mapRoot, newRoot, mode)
	}
	return val, removed
}

// mapRemove deletes key from the subtree at n and returns its new root,
// the removed value, whether the key was found, and whether the
// subtree's height shrank.
func mapRemove(tx *stm.Tx, n mem.Addr, key uint64, mode stm.Acc) (mem.Addr, uint64, bool, bool) {
	if n == mem.Nil {
		return mem.Nil, 0, false, false
	}
	k := tx.Load(n+mnKey, mode)
	var side, old mem.Addr
	var val uint64
	sub := key // the key to remove from the chosen subtree
	switch {
	case key < k:
		side = mnLeft
		old = tx.LoadAddr(n+side, mode)
	case key > k:
		side = mnRight
		old = tx.LoadAddr(n+side, mode)
	default:
		val = tx.Load(n+mnVal, mode)
		l := tx.LoadAddr(n+mnLeft, mode)
		r := tx.LoadAddr(n+mnRight, mode)
		if l == mem.Nil {
			tx.Free(n)
			return r, val, true, true
		}
		if r == mem.Nil {
			tx.Free(n)
			return l, val, true, true
		}
		// Two children: take over the in-order successor's entry, then
		// remove the successor from the right subtree.
		sk, sv := mapMin(tx, r, mode)
		tx.Store(n+mnKey, sk, mode)
		tx.Store(n+mnVal, sv, mode)
		side, old, sub = mnRight, r, sk
	}
	child, v, rem, shrank := mapRemove(tx, old, sub, mode)
	if !rem {
		return n, 0, false, false
	}
	if key != k {
		val = v // found below n, not at n
	}
	if child != old {
		tx.StoreAddr(n+side, child, mode)
	}
	if !shrank {
		return n, val, true, false
	}
	root, shrank := mfix(tx, n, mode)
	return root, val, true, shrank
}

func mapMin(tx *stm.Tx, n mem.Addr, mode stm.Acc) (key, val uint64) {
	for {
		l := tx.LoadAddr(n+mnLeft, mode)
		if l == mem.Nil {
			return tx.Load(n+mnKey, mode), tx.Load(n+mnVal, mode)
		}
		n = l
	}
}

// MapForEach visits entries in key order. fn returns false to stop.
func MapForEach(tx *stm.Tx, m mem.Addr, mode stm.Acc, fn func(key, val uint64) bool) {
	var walk func(n mem.Addr) bool
	walk = func(n mem.Addr) bool {
		if n == mem.Nil {
			return true
		}
		if !walk(tx.LoadAddr(n+mnLeft, mode)) {
			return false
		}
		if !fn(tx.Load(n+mnKey, mode), tx.Load(n+mnVal, mode)) {
			return false
		}
		return walk(tx.LoadAddr(n+mnRight, mode))
	}
	walk(tx.LoadAddr(m+mapRoot, mode))
}

// MapFree frees every node and the header.
func MapFree(tx *stm.Tx, m mem.Addr, mode stm.Acc) {
	var walk func(n mem.Addr)
	walk = func(n mem.Addr) {
		if n == mem.Nil {
			return
		}
		walk(tx.LoadAddr(n+mnLeft, mode))
		walk(tx.LoadAddr(n+mnRight, mode))
		tx.Free(n)
	}
	walk(tx.LoadAddr(m+mapRoot, mode))
	tx.Free(m)
}
