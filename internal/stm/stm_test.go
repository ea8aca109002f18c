package stm

import (
	"sync"
	"testing"

	"repro/internal/mem"
)

func testMemCfg() mem.Config {
	return mem.Config{GlobalWords: 1 << 10, HeapWords: 1 << 18, StackWords: 1 << 10, MaxThreads: 16}
}

func newRT(cfg OptConfig) *Runtime { return New(testMemCfg(), cfg) }

// allConfigs returns every optimization configuration exercised by the
// correctness matrix.
func allConfigs() []OptConfig {
	cfgs := []OptConfig{Baseline(), CountingConfig(), Compiler()}
	cfgs = append(cfgs, RuntimeAll(), RuntimeWrite(), RuntimeHeapWrite())
	an := RuntimeAll()
	an.Annotations = true
	an.Name = "runtime+annotations"
	cfgs = append(cfgs, an)
	noWAW := Baseline()
	noWAW.NoWAWFilter = true
	noWAW.Name = "baseline-no-waw"
	cfgs = append(cfgs, noWAW)
	return cfgs
}

func TestCommitMakesWritesVisible(t *testing.T) {
	for _, cfg := range allConfigs() {
		t.Run(cfg.Name, func(t *testing.T) {
			rt := newRT(cfg)
			th := rt.Thread(0)
			a := rt.Space().AllocGlobal(2)
			ok := th.Atomic(func(tx *Tx) {
				tx.Store(a, 41, AccShared)
				tx.Store(a+1, 42, AccShared)
			})
			if !ok {
				t.Fatal("Atomic returned false")
			}
			if rt.Space().Load(a) != 41 || rt.Space().Load(a+1) != 42 {
				t.Errorf("writes not visible: %d %d", rt.Space().Load(a), rt.Space().Load(a+1))
			}
			rt.Validate()
		})
	}
}

func TestReadAfterWrite(t *testing.T) {
	rt := newRT(Baseline())
	th := rt.Thread(0)
	a := rt.Space().AllocGlobal(1)
	th.Atomic(func(tx *Tx) {
		tx.Store(a, 7, AccShared)
		if got := tx.Load(a, AccShared); got != 7 {
			t.Errorf("RAW = %d, want 7", got)
		}
		tx.Store(a, 8, AccShared)
		if got := tx.Load(a, AccShared); got != 8 {
			t.Errorf("RAW = %d, want 8", got)
		}
	})
	if rt.Space().Load(a) != 8 {
		t.Errorf("final = %d, want 8", rt.Space().Load(a))
	}
}

func TestUserAbortRollsBack(t *testing.T) {
	for _, cfg := range allConfigs() {
		t.Run(cfg.Name, func(t *testing.T) {
			rt := newRT(cfg)
			th := rt.Thread(0)
			a := rt.Space().AllocGlobal(1)
			rt.Space().Store(a, 100)
			ok := th.Atomic(func(tx *Tx) {
				tx.Store(a, 200, AccShared)
				tx.UserAbort()
			})
			if ok {
				t.Fatal("Atomic returned true after UserAbort")
			}
			if got := rt.Space().Load(a); got != 100 {
				t.Errorf("value after abort = %d, want 100", got)
			}
			rt.Validate()
		})
	}
}

func TestAbortRollsBackAllocations(t *testing.T) {
	rt := newRT(RuntimeAll())
	th := rt.Thread(0)
	th.Atomic(func(tx *Tx) {
		p := tx.Alloc(4)
		tx.Store(p, 1, AccFresh)
		tx.UserAbort()
	})
	if live := th.alloc.Live(); live != 0 {
		t.Errorf("leaked %d blocks after abort", live)
	}
}

func TestTxAllocFreeSameTx(t *testing.T) {
	rt := newRT(RuntimeAll())
	th := rt.Thread(0)
	th.Atomic(func(tx *Tx) {
		p := tx.Alloc(4)
		tx.Store(p, 9, AccFresh)
		tx.Free(p)
		q := tx.Alloc(4) // may reuse p
		tx.Store(q, 1, AccFresh)
	})
	if live := th.alloc.Live(); live != 1 {
		t.Errorf("live = %d, want 1", live)
	}
	rt.Validate()
}

func TestDeferredFreeOnCommitOnly(t *testing.T) {
	rt := newRT(Baseline())
	th := rt.Thread(0)
	p := th.Alloc(4)
	th.Store(p, 55)
	// Abort: the free must not happen.
	th.Atomic(func(tx *Tx) {
		tx.Free(p)
		tx.UserAbort()
	})
	if th.Load(p) != 55 {
		t.Error("aborted free damaged block")
	}
	if th.alloc.Live() != 1 {
		t.Errorf("live = %d, want 1 (free must be undone)", th.alloc.Live())
	}
	// Commit: the free happens (via limbo, drained at quiescence).
	th.Atomic(func(tx *Tx) { tx.Free(p) })
	if th.alloc.Live() != 0 {
		t.Errorf("live = %d, want 0 after committed free", th.alloc.Live())
	}
}

func TestRuntimeCaptureElisionStats(t *testing.T) {
	t.Run("tree", func(t *testing.T) {
		rt := newRT(RuntimeAll())
		th := rt.Thread(0)
		th.Atomic(func(tx *Tx) {
			p := tx.Alloc(4)
			tx.Store(p, 5, AccAuto) // captured heap write
			_ = tx.Load(p, AccAuto) // captured heap read
			f := tx.StackAlloc(2)
			tx.Store(f, 6, AccAuto) // captured stack write
			_ = tx.Load(f, AccAuto) // captured stack read
		})
		s := rt.Stats()
		if s.WriteElHeap != 1 || s.ReadElHeap != 1 {
			t.Errorf("heap elisions r=%d w=%d, want 1/1", s.ReadElHeap, s.WriteElHeap)
		}
		if s.WriteElStack != 1 || s.ReadElStack != 1 {
			t.Errorf("stack elisions r=%d w=%d, want 1/1", s.ReadElStack, s.WriteElStack)
		}
		if s.ReadFull != 0 || s.WriteFull != 0 {
			t.Errorf("full barriers r=%d w=%d, want 0/0", s.ReadFull, s.WriteFull)
		}
	})
}

func TestWriteOnlyConfigElidesOnlyWrites(t *testing.T) {
	rt := newRT(RuntimeWrite())
	th := rt.Thread(0)
	th.Atomic(func(tx *Tx) {
		p := tx.Alloc(2)
		tx.Store(p, 5, AccAuto)
		_ = tx.Load(p, AccAuto)
	})
	s := rt.Stats()
	if s.WriteElHeap != 1 {
		t.Errorf("WriteElHeap = %d, want 1", s.WriteElHeap)
	}
	if s.ReadElHeap != 0 || s.ReadFull != 1 {
		t.Errorf("read should be full: ElHeap=%d Full=%d", s.ReadElHeap, s.ReadFull)
	}
}

func TestHeapOnlyConfigIgnoresStack(t *testing.T) {
	rt := newRT(RuntimeHeapWrite())
	th := rt.Thread(0)
	th.Atomic(func(tx *Tx) {
		f := tx.StackAlloc(1)
		tx.Store(f, 1, AccAuto) // stack, but stack checks are off
		p := tx.Alloc(1)
		tx.Store(p, 2, AccAuto)
	})
	s := rt.Stats()
	if s.WriteElStack != 0 || s.WriteElHeap != 1 || s.WriteFull != 1 {
		t.Errorf("elisions stack=%d heap=%d full=%d, want 0/1/1",
			s.WriteElStack, s.WriteElHeap, s.WriteFull)
	}
}

func TestCompilerElision(t *testing.T) {
	rt := newRT(Compiler())
	th := rt.Thread(0)
	g := rt.Space().AllocGlobal(1)
	th.Atomic(func(tx *Tx) {
		p := tx.Alloc(2)
		tx.Store(p, 5, AccFresh)  // statically elided
		_ = tx.Load(p, AccLocal)  // statically elided
		tx.Store(g, 1, AccShared) // kept
	})
	s := rt.Stats()
	if s.WriteElStatic != 1 || s.ReadElStatic != 1 {
		t.Errorf("static elisions r=%d w=%d, want 1/1", s.ReadElStatic, s.WriteElStatic)
	}
	if s.WriteFull != 1 {
		t.Errorf("WriteFull = %d, want 1", s.WriteFull)
	}
	if rt.Space().Load(p0(rt)) != 0 {
		// no assertion on heap content; just ensure globals committed
	}
	if rt.Space().Load(g) != 1 {
		t.Error("shared write lost")
	}
}

func p0(rt *Runtime) mem.Addr { s, _ := rt.Space().HeapRange(); return s }

func TestCountingClassification(t *testing.T) {
	rt := newRT(CountingConfig())
	th := rt.Thread(0)
	g := rt.Space().AllocGlobal(1)
	th.Atomic(func(tx *Tx) {
		p := tx.Alloc(2)
		tx.Store(p, 5, AccAuto) // captured heap
		_ = tx.Load(p, AccAuto) // captured heap
		f := tx.StackAlloc(1)
		tx.Store(f, 1, AccAuto)   // captured stack
		tx.Store(g, 2, AccShared) // shared (required)
		_ = tx.Load(g, AccShared)
	})
	s := rt.Stats()
	if s.WriteCapHeap != 1 || s.ReadCapHeap != 1 || s.WriteCapStack != 1 {
		t.Errorf("counting: wCapHeap=%d rCapHeap=%d wCapStack=%d", s.WriteCapHeap, s.ReadCapHeap, s.WriteCapStack)
	}
	if s.WriteManual != 1 || s.ReadManual != 1 {
		t.Errorf("manual counts r=%d w=%d, want 1/1", s.ReadManual, s.WriteManual)
	}
	if s.WriteTotal != 3 || s.ReadTotal != 2 {
		t.Errorf("totals r=%d w=%d, want 2/3", s.ReadTotal, s.WriteTotal)
	}
	// Counting mode must not elide anything.
	if s.ReadElided() != 0 || s.WriteElided() != 0 {
		t.Error("counting mode elided barriers")
	}
}

func TestAnnotationsElide(t *testing.T) {
	cfg := Baseline()
	cfg.Annotations = true
	rt := newRT(cfg)
	th := rt.Thread(0)
	p := th.Alloc(8)
	th.Store(p, 10)
	th.AddPrivateBlock(p, 8)
	th.Atomic(func(tx *Tx) {
		if got := tx.Load(p, AccAuto); got != 10 {
			t.Errorf("private read = %d, want 10", got)
		}
		tx.Store(p, 20, AccAuto)
	})
	s := rt.Stats()
	if s.ReadElPriv != 1 || s.WriteElPriv != 1 {
		t.Errorf("private elisions r=%d w=%d, want 1/1", s.ReadElPriv, s.WriteElPriv)
	}
	if th.Load(p) != 20 {
		t.Error("private write lost")
	}
	// Private writes keep undo logging: abort must restore.
	th.Atomic(func(tx *Tx) {
		tx.Store(p, 99, AccAuto)
		tx.UserAbort()
	})
	if th.Load(p) != 20 {
		t.Errorf("private write not rolled back: %d", th.Load(p))
	}
	// After removal, accesses are full barriers again.
	th.RemovePrivateBlock(p, 8)
	th.Atomic(func(tx *Tx) { tx.Store(p, 30, AccAuto) })
	s = rt.Stats()
	if s.WriteElPriv != 2 { // 1 from before + 1 from aborted tx
		t.Errorf("WriteElPriv = %d, want 2", s.WriteElPriv)
	}
	if s.WriteFull == 0 {
		t.Error("write after removal was not a full barrier")
	}
}

func TestWAWFilterSkipsRedundantUndo(t *testing.T) {
	rt := newRT(Baseline())
	th := rt.Thread(0)
	a := rt.Space().AllocGlobal(1)
	th.Atomic(func(tx *Tx) {
		for i := uint64(0); i < 10; i++ {
			tx.Store(a, i, AccShared)
		}
		if len(tx.undo) != 1 {
			t.Errorf("undo entries = %d, want 1", len(tx.undo))
		}
	})
	s := rt.Stats()
	if s.WriteWAWSkips != 9 {
		t.Errorf("WAW skips = %d, want 9", s.WriteWAWSkips)
	}
	// And the rollback is still correct.
	rt.Space().Store(a, 100)
	th.Atomic(func(tx *Tx) {
		tx.Store(a, 1, AccShared)
		tx.Store(a, 2, AccShared)
		tx.UserAbort()
	})
	if got := rt.Space().Load(a); got != 100 {
		t.Errorf("after abort = %d, want 100", got)
	}
}

func TestNoWAWFilterLogsEveryWrite(t *testing.T) {
	cfg := Baseline()
	cfg.NoWAWFilter = true
	rt := newRT(cfg)
	th := rt.Thread(0)
	a := rt.Space().AllocGlobal(1)
	th.Atomic(func(tx *Tx) {
		tx.Store(a, 1, AccShared)
		tx.Store(a, 2, AccShared)
		if len(tx.undo) != 2 {
			t.Errorf("undo entries = %d, want 2", len(tx.undo))
		}
	})
}

func TestNestedCommit(t *testing.T) {
	rt := newRT(Baseline())
	th := rt.Thread(0)
	a := rt.Space().AllocGlobal(2)
	th.Atomic(func(tx *Tx) {
		tx.Store(a, 1, AccShared)
		ok := th.Atomic(func(tx2 *Tx) {
			if tx2.Depth() != 2 {
				t.Errorf("depth = %d, want 2", tx2.Depth())
			}
			tx2.Store(a+1, 2, AccShared)
		})
		if !ok {
			t.Error("nested commit failed")
		}
	})
	if rt.Space().Load(a) != 1 || rt.Space().Load(a+1) != 2 {
		t.Error("nested writes lost")
	}
	rt.Validate()
}

func TestNestedPartialAbort(t *testing.T) {
	rt := newRT(Baseline())
	th := rt.Thread(0)
	a := rt.Space().AllocGlobal(2)
	rt.Space().Store(a, 10)
	rt.Space().Store(a+1, 20)
	th.Atomic(func(tx *Tx) {
		tx.Store(a, 11, AccShared)
		ok := th.Atomic(func(tx2 *Tx) {
			tx2.Store(a+1, 21, AccShared)
			tx2.UserAbort()
		})
		if ok {
			t.Error("aborted nested tx reported committed")
		}
		// Inner write rolled back, outer write intact.
		if got := tx.Load(a+1, AccShared); got != 20 {
			t.Errorf("inner write survives partial abort: %d", got)
		}
		if got := tx.Load(a, AccShared); got != 11 {
			t.Errorf("outer write lost: %d", got)
		}
	})
	if rt.Space().Load(a) != 11 || rt.Space().Load(a+1) != 20 {
		t.Errorf("final = %d,%d want 11,20", rt.Space().Load(a), rt.Space().Load(a+1))
	}
	rt.Validate()
}

// TestNestedPartialAbortOfCapturedWrites checks Sec. 2.2.1: memory
// captured by the outer transaction is live-in for the nested one, so
// elided (captured) writes inside the nested transaction must still be
// undone by a partial abort.
func TestNestedPartialAbortOfCapturedWrites(t *testing.T) {
	for _, cfg := range []OptConfig{RuntimeAll(), Compiler()} {
		t.Run(cfg.Name, func(t *testing.T) {
			rt := newRT(cfg)
			th := rt.Thread(0)
			th.Atomic(func(tx *Tx) {
				p := tx.Alloc(1)
				tx.Store(p, 5, AccFresh) // captured, outer
				th.Atomic(func(tx2 *Tx) {
					tx2.Store(p, 9, AccFresh) // captured, but live-in for inner
					tx2.UserAbort()
				})
				if got := tx.Load(p, AccFresh); got != 5 {
					t.Errorf("captured write not undone by partial abort: %d", got)
				}
			})
		})
	}
}

func TestNestedAllocPartialAbort(t *testing.T) {
	rt := newRT(RuntimeAll())
	th := rt.Thread(0)
	th.Atomic(func(tx *Tx) {
		outer := tx.Alloc(2)
		th.Atomic(func(tx2 *Tx) {
			inner := tx2.Alloc(2)
			tx2.Store(inner, 1, AccFresh)
			tx2.Free(outer) // freeing outer's block must be deferred
			tx2.UserAbort()
		})
		// outer's block survived the aborted free.
		tx.Store(outer, 7, AccFresh)
		if got := tx.Load(outer, AccFresh); got != 7 {
			t.Errorf("outer block damaged: %d", got)
		}
	})
	if th.alloc.Live() != 1 {
		t.Errorf("live = %d, want 1", th.alloc.Live())
	}
}

// TestSiblingFreeUndoneByPartialAbort: scope A allocates a block at
// depth 2 and commits into the outer transaction; sibling scope B, at
// the same depth, frees it and aborts. The outer transaction still
// holds the block, so its next allocation of that size must not hand
// it out again, and the block must keep its contents.
func TestSiblingFreeUndoneByPartialAbort(t *testing.T) {
	for name, cfg := range map[string]OptConfig{"baseline": Baseline(), "runtime-all-perf": RuntimeAll().Perf()} {
		t.Run(name, func(t *testing.T) {
			rt := newRT(cfg)
			th := rt.Thread(0)
			th.Atomic(func(tx *Tx) {
				var p mem.Addr
				th.Atomic(func(tx *Tx) {
					p = tx.Alloc(4)
					tx.Store(p, 42, AccFresh)
				})
				th.Atomic(func(tx *Tx) {
					tx.Free(p)
					tx.UserAbort()
				})
				if q := tx.Alloc(4); q == p {
					t.Errorf("Alloc after the aborted free returned the outer transaction's block %d", p)
				}
				if got := tx.Load(p, AccFresh); got != 42 {
					t.Errorf("outer block reads %d, want 42", got)
				}
			})
			if live := th.alloc.Live(); live != 2 {
				t.Errorf("live = %d, want 2", live)
			}
			rt.Validate()
		})
	}
}

func TestConflictRetries(t *testing.T) {
	rt := newRT(Baseline())
	a := rt.Space().AllocGlobal(1)
	const threads, incs = 8, 200
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := rt.Thread(id)
			for j := 0; j < incs; j++ {
				th.Atomic(func(tx *Tx) {
					v := tx.Load(a, AccShared)
					tx.Store(a, v+1, AccShared)
				})
			}
		}(i)
	}
	wg.Wait()
	if got := rt.Space().Load(a); got != threads*incs {
		t.Errorf("counter = %d, want %d", got, threads*incs)
	}
	s := rt.Stats()
	if s.Commits != threads*incs {
		t.Errorf("commits = %d, want %d", s.Commits, threads*incs)
	}
	rt.Validate()
}

// TestBankInvariant is the classic STM isolation test: concurrent
// random transfers must conserve the total across every configuration.
func TestBankInvariant(t *testing.T) {
	for _, cfg := range allConfigs() {
		t.Run(cfg.Name, func(t *testing.T) {
			rt := newRT(cfg)
			const accounts = 64
			const initial = 1000
			base := rt.Space().AllocGlobal(accounts)
			for i := 0; i < accounts; i++ {
				rt.Space().Store(base+mem.Addr(i), initial)
			}
			const threads, transfers = 6, 300
			var wg sync.WaitGroup
			for i := 0; i < threads; i++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					th := rt.Thread(id)
					rng := uint64(id + 1)
					for j := 0; j < transfers; j++ {
						rng = rng*6364136223846793005 + 1442695040888963407
						from := mem.Addr(rng>>33) % accounts
						to := mem.Addr(rng>>13) % accounts
						th.Atomic(func(tx *Tx) {
							// Scratch allocation exercises capture paths
							// under contention.
							scratch := tx.Alloc(2)
							tx.Store(scratch, uint64(j), AccFresh)
							f := tx.Load(base+from, AccShared)
							tx.Store(base+from, f-1, AccShared)
							tv := tx.Load(base+to, AccShared)
							tx.Store(base+to, tv+1, AccShared)
							tx.Free(scratch)
						})
					}
				}(i)
			}
			wg.Wait()
			var total uint64
			for i := 0; i < accounts; i++ {
				total += rt.Space().Load(base + mem.Addr(i))
			}
			if total != accounts*initial {
				t.Errorf("total = %d, want %d", total, accounts*initial)
			}
			rt.Validate()
		})
	}
}

// TestFreedBlockReuseIsQuiescent exercises the limbo list: a block
// freed by a committed transaction is not recycled while another
// thread is still inside a transaction that might read it.
func TestFreedBlockReuseIsQuiescent(t *testing.T) {
	rt := newRT(RuntimeAll())
	thA := rt.Thread(0)
	thB := rt.Thread(1)
	p := thA.Alloc(4)

	inTx := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		thB.Atomic(func(tx *Tx) {
			if tx.Attempt() == 1 {
				close(inTx)
				<-release
			}
		})
	}()
	<-inTx
	thA.Atomic(func(tx *Tx) { tx.Free(p) })
	if len(thA.limbo) != 1 {
		t.Fatalf("limbo batches = %d, want 1 (thread B still in tx)", len(thA.limbo))
	}
	if thA.alloc.Live() != 0 {
		// Live counts frees at Tx.Free time via allocator.Free, which
		// hasn't run yet; the block is in limbo.
		t.Logf("live = %d (block parked in limbo)", thA.alloc.Live())
	}
	close(release)
	<-done
	// Next commit by A drains the limbo.
	thA.Atomic(func(tx *Tx) { _ = tx.Alloc(1) })
	if len(thA.limbo) != 0 {
		t.Errorf("limbo not drained after quiescence")
	}
}

func TestStackFramesUnwoundOnAbortAndCommit(t *testing.T) {
	rt := newRT(Baseline())
	th := rt.Thread(0)
	sp0 := th.stack.SP()
	th.Atomic(func(tx *Tx) {
		tx.StackAlloc(8)
		tx.StackAlloc(4)
	})
	if th.stack.SP() != sp0 {
		t.Errorf("stack not restored after commit: %d != %d", th.stack.SP(), sp0)
	}
	th.Atomic(func(tx *Tx) {
		tx.StackAlloc(8)
		tx.UserAbort()
	})
	if th.stack.SP() != sp0 {
		t.Errorf("stack not restored after abort: %d != %d", th.stack.SP(), sp0)
	}
}

func TestPanicInsideTxCleansUp(t *testing.T) {
	rt := newRT(Baseline())
	th := rt.Thread(0)
	a := rt.Space().AllocGlobal(1)
	rt.Space().Store(a, 5)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic swallowed")
			}
		}()
		th.Atomic(func(tx *Tx) {
			tx.Store(a, 9, AccShared)
			panic("boom")
		})
	}()
	if got := rt.Space().Load(a); got != 5 {
		t.Errorf("value after panic = %d, want 5 (rolled back)", got)
	}
	rt.Validate()
	// The thread remains usable.
	if !th.Atomic(func(tx *Tx) { tx.Store(a, 6, AccShared) }) {
		t.Error("thread unusable after panic")
	}
}

func TestFloatAndAddrAccessors(t *testing.T) {
	rt := newRT(Baseline())
	th := rt.Thread(0)
	a := rt.Space().AllocGlobal(2)
	th.Atomic(func(tx *Tx) {
		tx.StoreFloat(a, 3.25, AccShared)
		tx.StoreAddr(a+1, 77, AccShared)
		if tx.LoadFloat(a, AccShared) != 3.25 {
			t.Error("float round trip failed")
		}
		if tx.LoadAddr(a+1, AccShared) != 77 {
			t.Error("addr round trip failed")
		}
	})
}

func TestStatsAggregation(t *testing.T) {
	rt := newRT(Baseline())
	a := rt.Space().AllocGlobal(1)
	for i := 0; i < 3; i++ {
		th := rt.Thread(i)
		th.Atomic(func(tx *Tx) { tx.Store(a, 1, AccShared) })
	}
	s := rt.Stats()
	if s.Commits != 3 {
		t.Errorf("commits = %d, want 3", s.Commits)
	}
	if s.WriteTotal != 3 || s.WriteManual != 3 {
		t.Errorf("write totals = %d/%d, want 3/3", s.WriteTotal, s.WriteManual)
	}
}

func TestProvString(t *testing.T) {
	for p, want := range map[Prov]string{
		ProvUnknown: "unknown", ProvFresh: "fresh", ProvLocal: "local",
		ProvStack: "stack", Prov(9): "invalid",
	} {
		if p.String() != want {
			t.Errorf("Prov(%d).String() = %q, want %q", p, p.String(), want)
		}
	}
}

func TestStaticElideDecision(t *testing.T) {
	if StaticElide(ProvUnknown) {
		t.Error("ProvUnknown must keep the barrier")
	}
	for _, p := range []Prov{ProvFresh, ProvLocal, ProvStack} {
		if !StaticElide(p) {
			t.Errorf("%v must be elidable", p)
		}
	}
}

func TestAbortToCommitRatio(t *testing.T) {
	var s Stats
	if s.AbortRatio() != 0 {
		t.Error("zero commits should give ratio 0")
	}
	s.Commits, s.Aborts = 10, 5
	if s.AbortRatio() != 0.5 {
		t.Errorf("ratio = %v, want 0.5", s.AbortRatio())
	}
}
