package txlib

import (
	"sort"
	"sync"
	"testing"

	"repro/internal/mem"
	"repro/internal/prng"
	"repro/internal/stm"
)

func newTestRT() *stm.Runtime {
	return stm.New(mem.Config{GlobalWords: 1 << 8, HeapWords: 1 << 20, StackWords: 1 << 10, MaxThreads: 8},
		stm.Baseline())
}

func newCaptureRT() *stm.Runtime {
	return stm.New(mem.Config{GlobalWords: 1 << 8, HeapWords: 1 << 20, StackWords: 1 << 10, MaxThreads: 8},
		stm.RuntimeAll())
}

func TestListBasic(t *testing.T) {
	rt := newTestRT()
	th := rt.Thread(0)
	var l mem.Addr
	th.Atomic(func(tx *stm.Tx) { l = NewList(tx) })
	th.Atomic(func(tx *stm.Tx) {
		if !ListInsert(tx, l, 5, 50, TM) || !ListInsert(tx, l, 1, 10, TM) || !ListInsert(tx, l, 3, 30, TM) {
			t.Error("insert failed")
		}
		if ListInsert(tx, l, 3, 99, TM) {
			t.Error("duplicate insert succeeded")
		}
	})
	th.Atomic(func(tx *stm.Tx) {
		if ListSize(tx, l, TM) != 3 {
			t.Errorf("size = %d, want 3", ListSize(tx, l, TM))
		}
		if v, ok := ListFind(tx, l, 3, TM); !ok || v != 30 {
			t.Errorf("find(3) = %d,%v", v, ok)
		}
		if _, ok := ListFind(tx, l, 4, TM); ok {
			t.Error("found absent key")
		}
		// Iteration yields sorted keys.
		it := ListIterNew(tx)
		ListIterReset(tx, it, l, TM)
		var keys []uint64
		for ListIterHasNext(tx, it) {
			k, _ := ListIterNext(tx, it, TM)
			keys = append(keys, k)
		}
		if len(keys) != 3 || keys[0] != 1 || keys[1] != 3 || keys[2] != 5 {
			t.Errorf("iteration = %v", keys)
		}
	})
	th.Atomic(func(tx *stm.Tx) {
		if v, ok := ListRemove(tx, l, 3, TM); !ok || v != 30 {
			t.Errorf("remove(3) = %d,%v", v, ok)
		}
		if _, ok := ListRemove(tx, l, 3, TM); ok {
			t.Error("double remove succeeded")
		}
		if k, d, ok := ListRemoveHead(tx, l, TM); !ok || k != 1 || d != 10 {
			t.Errorf("removeHead = %d,%d,%v", k, d, ok)
		}
		if ListSize(tx, l, TM) != 1 {
			t.Errorf("size = %d, want 1", ListSize(tx, l, TM))
		}
	})
}

func TestListEmptyOps(t *testing.T) {
	rt := newTestRT()
	th := rt.Thread(0)
	th.Atomic(func(tx *stm.Tx) {
		l := NewList(tx)
		if !ListIsEmpty(tx, l, P) {
			t.Error("new list not empty")
		}
		if _, _, ok := ListRemoveHead(tx, l, P); ok {
			t.Error("removeHead on empty succeeded")
		}
		if _, ok := ListRemove(tx, l, 1, P); ok {
			t.Error("remove on empty succeeded")
		}
		ListFree(tx, l, P)
	})
}

func TestListFreeReclaims(t *testing.T) {
	rt := newTestRT()
	th := rt.Thread(0)
	th.Atomic(func(tx *stm.Tx) {
		l := NewList(tx)
		for i := uint64(0); i < 10; i++ {
			ListInsert(tx, l, i, i, L)
		}
		ListFree(tx, l, L)
	})
	s := rt.Stats()
	if s.TxAllocs != s.TxFrees {
		t.Errorf("allocs=%d frees=%d; ListFree leaked", s.TxAllocs, s.TxFrees)
	}
}

func TestMapAgainstReference(t *testing.T) {
	rt := newTestRT()
	th := rt.Thread(0)
	var m mem.Addr
	th.Atomic(func(tx *stm.Tx) { m = NewMap(tx) })
	ref := map[uint64]uint64{}
	r := prng.New(77)
	for step := 0; step < 3000; step++ {
		key := uint64(r.Intn(200))
		switch r.Intn(4) {
		case 0, 1:
			val := r.Next()
			th.Atomic(func(tx *stm.Tx) {
				ins := MapInsert(tx, m, key, val, TM)
				_, exists := ref[key]
				if ins == exists {
					t.Fatalf("step %d: insert(%d) = %v, exists = %v", step, key, ins, exists)
				}
				if !exists {
					ref[key] = val
				}
			})
		case 2:
			th.Atomic(func(tx *stm.Tx) {
				v, ok := MapRemove(tx, m, key, TM)
				want, exists := ref[key]
				if ok != exists || (ok && v != want) {
					t.Fatalf("step %d: remove(%d) = %d,%v want %d,%v", step, key, v, ok, want, exists)
				}
				delete(ref, key)
			})
		case 3:
			th.Atomic(func(tx *stm.Tx) {
				v, ok := MapGet(tx, m, key, TM)
				want, exists := ref[key]
				if ok != exists || (ok && v != want) {
					t.Fatalf("step %d: get(%d) = %d,%v want %d,%v", step, key, v, ok, want, exists)
				}
			})
		}
	}
	// Final structural check: in-order iteration is sorted and matches.
	th.Atomic(func(tx *stm.Tx) {
		if MapSize(tx, m, TM) != len(ref) {
			t.Errorf("size = %d, want %d", MapSize(tx, m, TM), len(ref))
		}
		var keys []uint64
		MapForEach(tx, m, TM, func(k, v uint64) bool {
			keys = append(keys, k)
			if ref[k] != v {
				t.Errorf("key %d: val %d, want %d", k, v, ref[k])
			}
			return true
		})
		if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
			t.Error("in-order traversal not sorted")
		}
		if len(keys) != len(ref) {
			t.Errorf("traversal yielded %d keys, want %d", len(keys), len(ref))
		}
	})
}

func TestMapSet(t *testing.T) {
	rt := newTestRT()
	th := rt.Thread(0)
	th.Atomic(func(tx *stm.Tx) {
		m := NewMap(tx)
		MapSet(tx, m, 1, 10, P)
		MapSet(tx, m, 1, 20, P)
		if v, _ := MapGet(tx, m, 1, P); v != 20 {
			t.Errorf("MapSet overwrite = %d, want 20", v)
		}
		if MapSize(tx, m, P) != 1 {
			t.Error("MapSet duplicated key")
		}
	})
}

func TestMapFreeReclaims(t *testing.T) {
	rt := newTestRT()
	th := rt.Thread(0)
	th.Atomic(func(tx *stm.Tx) {
		m := NewMap(tx)
		for i := uint64(0); i < 64; i++ {
			MapInsert(tx, m, i*7%64, i, L)
		}
		MapFree(tx, m, L)
	})
	s := rt.Stats()
	if s.TxAllocs != s.TxFrees {
		t.Errorf("allocs=%d frees=%d; MapFree leaked", s.TxAllocs, s.TxFrees)
	}
}

func TestHashtable(t *testing.T) {
	rt := newTestRT()
	th := rt.Thread(0)
	var ht mem.Addr
	th.Atomic(func(tx *stm.Tx) { ht = NewHashtable(tx, 16) })
	// Insert 100 distinct 2-word keys; re-inserting must fail.
	for i := uint64(0); i < 100; i++ {
		i := i
		th.Atomic(func(tx *stm.Tx) {
			key := tx.StackAlloc(2)
			tx.Store(key, i, stm.AccStack)
			tx.Store(key+1, i*3, stm.AccStack)
			if !HTInsertIfAbsent(tx, ht, key, 2, i+1000, TM, stm.AccStack) {
				t.Errorf("insert %d failed", i)
			}
			if HTInsertIfAbsent(tx, ht, key, 2, 0, TM, stm.AccStack) {
				t.Errorf("duplicate insert %d succeeded", i)
			}
		})
	}
	th.Atomic(func(tx *stm.Tx) {
		if HTSize(tx, ht, TM) != 100 {
			t.Errorf("size = %d, want 100", HTSize(tx, ht, TM))
		}
		key := tx.StackAlloc(2)
		tx.Store(key, 42, stm.AccStack)
		tx.Store(key+1, 126, stm.AccStack)
		if v, ok := HTGet(tx, ht, key, 2, TM, stm.AccStack); !ok || v != 1042 {
			t.Errorf("get = %d,%v want 1042,true", v, ok)
		}
		tx.Store(key+1, 999, stm.AccStack) // different content, same first word
		if HTContains(tx, ht, key, 2, TM, stm.AccStack) {
			t.Error("contains with wrong content")
		}
		count := 0
		HTForEach(tx, ht, TM, func(kp mem.Addr, kw int, data uint64) bool {
			if kw != 2 {
				t.Errorf("keyWords = %d", kw)
			}
			count++
			return true
		})
		if count != 100 {
			t.Errorf("ForEach visited %d, want 100", count)
		}
	})
}

func TestVector(t *testing.T) {
	rt := newTestRT()
	th := rt.Thread(0)
	th.Atomic(func(tx *stm.Tx) {
		v := NewVector(tx, 2)
		for i := uint64(0); i < 50; i++ {
			VecPushBack(tx, v, i*i, L)
		}
		if VecSize(tx, v, L) != 50 {
			t.Errorf("size = %d", VecSize(tx, v, L))
		}
		for i := 0; i < 50; i++ {
			if got := VecGet(tx, v, i, L); got != uint64(i*i) {
				t.Errorf("VecGet(%d) = %d", i, got)
			}
		}
		VecSet(tx, v, 10, 7, L)
		if VecGet(tx, v, 10, L) != 7 {
			t.Error("VecSet lost")
		}
		VecClear(tx, v, L)
		if VecSize(tx, v, L) != 0 {
			t.Error("clear failed")
		}
		VecFree(tx, v, L)
	})
	s := rt.Stats()
	if s.TxAllocs != s.TxFrees {
		t.Errorf("allocs=%d frees=%d; vector leaked", s.TxAllocs, s.TxFrees)
	}
}

func TestVectorOutOfRangePanics(t *testing.T) {
	rt := newTestRT()
	th := rt.Thread(0)
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	th.Atomic(func(tx *stm.Tx) {
		v := NewVector(tx, 2)
		VecGet(tx, v, 0, P)
	})
}

func TestQueueFIFO(t *testing.T) {
	rt := newTestRT()
	th := rt.Thread(0)
	th.Atomic(func(tx *stm.Tx) {
		q := NewQueue(tx, 2)
		if !QueueIsEmpty(tx, q, P) {
			t.Error("new queue not empty")
		}
		if _, ok := QueuePop(tx, q, P); ok {
			t.Error("pop from empty succeeded")
		}
		for i := uint64(0); i < 40; i++ { // forces several growths
			QueuePush(tx, q, i, P)
		}
		if QueueSize(tx, q, P) != 40 {
			t.Errorf("size = %d, want 40", QueueSize(tx, q, P))
		}
		for i := uint64(0); i < 40; i++ {
			v, ok := QueuePop(tx, q, P)
			if !ok || v != i {
				t.Fatalf("pop = %d,%v want %d", v, ok, i)
			}
		}
		if !QueueIsEmpty(tx, q, P) {
			t.Error("queue not empty after draining")
		}
		QueueFree(tx, q, P)
	})
}

func TestQueueInterleaved(t *testing.T) {
	rt := newTestRT()
	th := rt.Thread(0)
	r := prng.New(5)
	var q mem.Addr
	th.Atomic(func(tx *stm.Tx) { q = NewQueue(tx, 4) })
	var ref []uint64
	next := uint64(0)
	for step := 0; step < 500; step++ {
		if r.Intn(2) == 0 || len(ref) == 0 {
			v := next
			next++
			ref = append(ref, v)
			th.Atomic(func(tx *stm.Tx) { QueuePush(tx, q, v, TM) })
		} else {
			want := ref[0]
			ref = ref[1:]
			th.Atomic(func(tx *stm.Tx) {
				v, ok := QueuePop(tx, q, TM)
				if !ok || v != want {
					t.Fatalf("step %d: pop = %d,%v want %d", step, v, ok, want)
				}
			})
		}
	}
}

func TestHeapOrdering(t *testing.T) {
	rt := newTestRT()
	th := rt.Thread(0)
	r := prng.New(11)
	th.Atomic(func(tx *stm.Tx) {
		h := NewHeap(tx, 2)
		var prios []uint64
		for i := 0; i < 200; i++ {
			p := r.Next() % 1000
			prios = append(prios, p)
			HeapInsert(tx, h, p, p*2, L)
		}
		sort.Slice(prios, func(i, j int) bool { return prios[i] > prios[j] })
		for i, want := range prios {
			p, payload, ok := HeapExtractMax(tx, h, L)
			if !ok || p != want || payload != p*2 {
				t.Fatalf("extract %d = (%d,%d,%v), want prio %d", i, p, payload, ok, want)
			}
		}
		if _, _, ok := HeapExtractMax(tx, h, L); ok {
			t.Error("extract from empty succeeded")
		}
		HeapFree(tx, h, L)
	})
}

func TestBitmap(t *testing.T) {
	rt := newTestRT()
	th := rt.Thread(0)
	th.Atomic(func(tx *stm.Tx) {
		b := NewBitmap(tx, 200)
		if BitmapNBits(tx, b, P) != 200 {
			t.Error("wrong nbits")
		}
		if !BitmapTestAndSet(tx, b, 0, P) || !BitmapTestAndSet(tx, b, 63, P) ||
			!BitmapTestAndSet(tx, b, 64, P) || !BitmapTestAndSet(tx, b, 199, P) {
			t.Error("set failed")
		}
		if BitmapTestAndSet(tx, b, 63, P) {
			t.Error("second set returned true")
		}
		if !BitmapTest(tx, b, 64, P) || BitmapTest(tx, b, 65, P) {
			t.Error("test wrong")
		}
		if BitmapCount(tx, b, P) != 4 {
			t.Errorf("count = %d, want 4", BitmapCount(tx, b, P))
		}
		BitmapClear(tx, b, 63, P)
		if BitmapTest(tx, b, 63, P) {
			t.Error("clear failed")
		}
		if BitmapCount(tx, b, P) != 3 {
			t.Errorf("count = %d, want 3", BitmapCount(tx, b, P))
		}
	})
}

// TestConcurrentMapInsert hammers one shared map from several threads;
// every inserted key must be present exactly once afterwards.
func TestConcurrentMapInsert(t *testing.T) {
	for _, mkRT := range []func() *stm.Runtime{newTestRT, newCaptureRT} {
		rt := mkRT()
		th0 := rt.Thread(0)
		var m mem.Addr
		th0.Atomic(func(tx *stm.Tx) { m = NewMap(tx) })
		const threads, per = 6, 200
		var wg sync.WaitGroup
		for i := 0; i < threads; i++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				th := rt.Thread(id)
				for j := 0; j < per; j++ {
					key := uint64(id*per + j)
					th.Atomic(func(tx *stm.Tx) {
						MapInsert(tx, m, key, key+1, TM)
					})
				}
			}(i)
		}
		wg.Wait()
		th0.Atomic(func(tx *stm.Tx) {
			if got := MapSize(tx, m, TM); got != threads*per {
				t.Errorf("size = %d, want %d", got, threads*per)
			}
			for k := uint64(0); k < threads*per; k++ {
				if v, ok := MapGet(tx, m, k, TM); !ok || v != k+1 {
					t.Fatalf("key %d = %d,%v", k, v, ok)
				}
			}
		})
		rt.Validate()
	}
}

// TestConcurrentQueueProducersConsumers moves tokens through a shared
// queue; nothing may be lost or duplicated.
func TestConcurrentQueueProducersConsumers(t *testing.T) {
	rt := newCaptureRT()
	th0 := rt.Thread(0)
	var q mem.Addr
	th0.Atomic(func(tx *stm.Tx) { q = NewQueue(tx, 8) })
	const producers, per = 3, 150
	var wg sync.WaitGroup
	seen := make([]int, producers*per)
	var mu sync.Mutex
	for i := 0; i < producers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := rt.Thread(id)
			for j := 0; j < per; j++ {
				v := uint64(id*per + j)
				th.Atomic(func(tx *stm.Tx) { QueuePush(tx, q, v, TM) })
			}
		}(i)
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := rt.Thread(producers + id)
			for {
				var v uint64
				var ok bool
				th.Atomic(func(tx *stm.Tx) { v, ok = QueuePop(tx, q, TM) })
				if !ok {
					mu.Lock()
					done := true
					for _, c := range seen {
						if c == 0 {
							done = false
							break
						}
					}
					mu.Unlock()
					if done {
						return
					}
					continue
				}
				mu.Lock()
				seen[v]++
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	for v, c := range seen {
		if c != 1 {
			t.Errorf("token %d seen %d times", v, c)
		}
	}
	rt.Validate()
}
