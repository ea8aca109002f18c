package wal

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func sampleRecords() []Record {
	return []Record{
		{Kind: KindCommit, Version: 7, GlobalsNext: 100, HeapNext: 2000, Spans: []Span{
			{Addr: 42, Vals: []uint64{1, 2, 3}},
			{Addr: 9000, Vals: []uint64{0xdeadbeef}},
		}},
		{Kind: KindAbort, Version: 9, Spans: []Span{{Addr: 5, Vals: []uint64{0}}}},
		{Kind: KindNonTx, Version: 9, GlobalsNext: 101, Spans: []Span{{Addr: 77, Vals: []uint64{123, 456}}}},
		{Kind: KindSeal, Version: 12, GlobalsNext: 101, HeapNext: 2048},
		{Kind: KindCommit, Version: 13, Spans: []Span{{Addr: 1, Vals: nil}}},
	}
}

func TestRecordRoundTrip(t *testing.T) {
	var buf []byte
	recs := sampleRecords()
	for i := range recs {
		recs[i].Seq = uint64(i)
		buf = AppendRecord(buf, &recs[i])
	}
	var got Record
	off := 0
	for i := range recs {
		n, err := DecodeRecord(buf[off:], &got)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		off += n
		want := recs[i]
		if got.Kind != want.Kind || got.Seq != want.Seq || got.Version != want.Version ||
			got.GlobalsNext != want.GlobalsNext || got.HeapNext != want.HeapNext ||
			len(got.Spans) != len(want.Spans) {
			t.Fatalf("record %d mismatch: got %+v", i, got)
		}
		for j := range want.Spans {
			if got.Spans[j].Addr != want.Spans[j].Addr ||
				!reflect.DeepEqual(append([]uint64{}, got.Spans[j].Vals...), append([]uint64{}, want.Spans[j].Vals...)) {
				t.Fatalf("record %d span %d: got %+v want %+v", i, j, got.Spans[j], want.Spans[j])
			}
		}
	}
	if off != len(buf) {
		t.Fatalf("consumed %d of %d bytes", off, len(buf))
	}
}

func TestDecodeTruncationIsTorn(t *testing.T) {
	rec := sampleRecords()[0]
	full := AppendRecord(nil, &rec)
	var out Record
	for cut := 0; cut < len(full); cut++ {
		if _, err := DecodeRecord(full[:cut], &out); !errors.Is(err, ErrTorn) {
			t.Fatalf("cut %d: got %v, want ErrTorn", cut, err)
		}
	}
	// Flipping a payload byte breaks the CRC, which also reads as torn.
	mut := append([]byte(nil), full...)
	mut[len(mut)-1] ^= 0xff
	if _, err := DecodeRecord(mut, &out); !errors.Is(err, ErrTorn) {
		t.Fatalf("bit flip: got %v, want ErrTorn", err)
	}
}

// wordSlice is a WordSource over a plain image.
type wordSlice []uint64

func (w wordSlice) Size() int                      { return len(w) }
func (w wordSlice) ReadWords(dst []uint64, at int) { copy(dst, w[at:]) }

// recoverImage runs both recovery steps into a fresh zero image.
func recoverImage(dir string) (*RecoveredState, []uint64, error) {
	rec, err := Recover(dir)
	if err != nil {
		return nil, nil, err
	}
	words := make([]uint64, rec.SpaceWords)
	st, err := rec.Load(words)
	return st, words, err
}

// writeState drives a log + store pair over a synthetic word image —
// fifty records, a checkpoint after each record named in checkpointAt
// (pruning the log below its cut when prune is set) — then crashes, and
// returns the final image.
func writeState(t *testing.T, dir string, spaceWords, chunkWords int, prune bool, checkpointAt ...uint64) []uint64 {
	t.Helper()
	words := make([]uint64, spaceWords)
	store, err := openStore(dir, chunkWords)
	if err != nil {
		t.Fatal(err)
	}
	l := openLog(t, dir, Options{NoFsync: true}, seam{segBytes: 4 << 10})
	mutate := func(seed uint64, n int) *Record {
		rec := &Record{Kind: KindCommit, Version: seed, GlobalsNext: seed, HeapNext: 2 * seed}
		for i := 0; i < n; i++ {
			addr := (seed*31 + uint64(i)*17) % uint64(spaceWords)
			val := seed<<16 | uint64(i)
			words[addr] = val
			rec.Spans = append(rec.Spans, Span{Addr: addr, Vals: []uint64{val}})
		}
		return rec
	}
	for seed := uint64(1); seed <= 50; seed++ {
		if _, err := l.Append(mutate(seed, 8)); err != nil {
			t.Fatal(err)
		}
		for _, at := range checkpointAt {
			if seed != at {
				continue
			}
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			cutSeg, cutOff := l.Position()
			if _, err := store.WriteCheckpoint(Snapshot{
				Clock:       seed,
				GlobalsNext: seed,
				HeapNext:    2 * seed,
				Geometry:    Geometry{GlobalWords: 1, HeapWords: 1, StackWords: 1, MaxThreads: 1},
				CutSeg:      cutSeg,
				CutOff:      cutOff,
			}, wordSlice(words)); err != nil {
				t.Fatal(err)
			}
			if prune {
				if err := l.TruncateBefore(cutSeg); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// Crash: flush but do not seal.
	l.Kill()
	return words
}

// The store writes chunks of 64, 512 and (not dividing the space) 1000
// words; recovery always opens its store with the default size, so the
// loader must take offsets from the manifest.
func TestRecoverCheckpointPlusTail(t *testing.T) {
	for _, chunkWords := range []int{64, 512, 1000} {
		dir := t.TempDir()
		want := writeState(t, dir, 4096, chunkWords, true, 25)
		st, words, err := recoverImage(dir)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(words, want) {
			t.Fatalf("chunks of %d words: recovered words differ from live image", chunkWords)
		}
		if st.Clock != 50 || st.GlobalsNext != 50 || st.HeapNext != 100 {
			t.Fatalf("metadata: clock=%d gn=%d hn=%d", st.Clock, st.GlobalsNext, st.HeapNext)
		}
		if st.Records == 0 || st.Truncated {
			t.Fatalf("records=%d truncated=%v", st.Records, st.Truncated)
		}
	}
}

// A checkpoint records every word of an Untouched extent as zero — the
// chunks wholly inside one unread, and the inside part of the chunks on
// its edges whatever the source holds there by the time they are read
// (a span carved and scribbled on after the cut by a transaction that
// never got to log it).
func TestCheckpointRecordsUntouchedAsZero(t *testing.T) {
	const spaceWords, chunkWords = 4096, 64
	dir := t.TempDir()
	live := make(wordSlice, spaceWords)
	for i := range live {
		live[i] = uint64(i) | 1<<40
	}
	untouched := []Extent{{Lo: 100, Hi: 300}, {Lo: 1000, Hi: spaceWords}}
	store, err := openStore(dir, chunkWords)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.WriteCheckpoint(Snapshot{
		Geometry:  Geometry{GlobalWords: 1, HeapWords: 1, StackWords: 1, MaxThreads: 1},
		Untouched: untouched,
	}, live); err != nil {
		t.Fatal(err)
	}
	_, words, err := recoverImage(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range words {
		want := live[i]
		for _, e := range untouched {
			if uint64(i) >= e.Lo && uint64(i) < e.Hi {
				want = 0
			}
		}
		if w != want {
			t.Fatalf("recovered word %d = %#x, want %#x", i, w, want)
		}
	}
}

func TestRecoverTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	writeState(t, dir, 4096, 64, true, 25)
	// The killed log's last segment ends in the zeros of its reservation;
	// a first recovery trims them.
	if st, _, err := recoverImage(dir); err != nil || st.Truncated {
		t.Fatalf("recovering the killed log: truncated=%v, err %v", st != nil && st.Truncated, err)
	}

	// Chop bytes off the last segment, mid-record.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var lastSeg uint64
	found := false
	for _, e := range entries {
		var n uint64
		if matchName(e.Name(), "seg-%08d.wal", &n) {
			if !found || n > lastSeg {
				lastSeg = n
			}
			found = true
		}
	}
	if !found {
		t.Fatal("no segments on disk")
	}
	path := filepath.Join(dir, SegName(lastSeg))
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	st, words, err := recoverImage(dir)
	if err != nil {
		t.Fatalf("recovery failed on torn tail: %v", err)
	}
	if !st.Truncated {
		t.Fatal("recovery did not report truncation")
	}
	// Recovery must be repeatable: the torn record is gone now.
	st2, words2, err := recoverImage(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Truncated {
		t.Fatal("second recovery still sees a torn tail")
	}
	if !reflect.DeepEqual(words, words2) {
		t.Fatal("recover-after-truncate changed state")
	}
}

func TestRecoverNoCheckpoint(t *testing.T) {
	if _, err := Recover(t.TempDir()); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("got %v, want ErrNoCheckpoint", err)
	}
}

func TestCheckpointDedup(t *testing.T) {
	dir := t.TempDir()
	store, err := openStore(dir, 16)
	if err != nil {
		t.Fatal(err)
	}
	words := make([]uint64, 256)
	for i := range words {
		words[i] = uint64(i)
	}
	snap := Snapshot{Geometry: Geometry{GlobalWords: 1, HeapWords: 1, StackWords: 1, MaxThreads: 1}}
	if _, err := store.WriteCheckpoint(snap, wordSlice(words)); err != nil {
		t.Fatal(err)
	}
	first := store.Stats()
	if first.ChunksWritten == 0 {
		t.Fatal("first checkpoint wrote nothing")
	}
	words[3] = 0xabcdef // dirty exactly one chunk
	if _, err := store.WriteCheckpoint(snap, wordSlice(words)); err != nil {
		t.Fatal(err)
	}
	second := store.Stats()
	if w := second.ChunksWritten - first.ChunksWritten; w != 1 {
		t.Fatalf("second checkpoint wrote %d chunks, want 1", w)
	}
	if second.ChunksDeduped == first.ChunksDeduped {
		t.Fatal("second checkpoint deduped nothing")
	}

	// A store reopened on the same dir dedups against disk state.
	store2, err := openStore(dir, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store2.WriteCheckpoint(snap, wordSlice(words)); err != nil {
		t.Fatal(err)
	}
	if st := store2.Stats(); st.ChunksWritten != 0 {
		t.Fatalf("reopened store rewrote %d chunks", st.ChunksWritten)
	}
}

// TestOpenStoreRemovesCrashLeftovers plants what a crash between the
// pack write and the index write used to leave (a pack with no index)
// and what a crash mid-write leaves now (*.tmp files): OpenStore deletes
// them, keeps every indexed pack, and the store keeps working.
func TestOpenStoreRemovesCrashLeftovers(t *testing.T) {
	dir := t.TempDir()
	want := writeState(t, dir, 4096, 64, true, 25)
	planted := []string{PackName(7), PackName(3) + ".tmp", IndexName(3) + ".tmp", ManifestName(9) + ".tmp"}
	for _, name := range planted {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("leftover"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	store, err := openStore(dir, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range planted {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("%s survives OpenStore (stat: %v)", name, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, PackName(0))); err != nil {
		t.Errorf("indexed pack removed: %v", err)
	}
	// The image is already final: cut past every segment, nothing replays.
	if _, err := store.WriteCheckpoint(Snapshot{CutSeg: 1 << 20}, wordSlice(want)); err != nil {
		t.Fatal(err)
	}
	if _, words, err := recoverImage(dir); err != nil || !reflect.DeepEqual(words, want) {
		t.Fatalf("recovery after clean-up: err=%v, image equal=%v", err, err == nil && reflect.DeepEqual(words, want))
	}
}

// TestCorruptionIsRefused damages a directory holding two checkpoints
// (seq 0 and 1) and a redo tail, one way per case. With the older
// checkpoint's tail still on disk recovery must fall back to it and
// reproduce the live image; with that tail pruned it must fail with
// ErrNoCheckpoint. It never returns a different image.
func TestCorruptionIsRefused(t *testing.T) {
	flip := func(name func() string, off func(size int) int) func(*testing.T, string) {
		return func(t *testing.T, dir string) {
			path := filepath.Join(dir, name())
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b[off(len(b))] ^= 0x10
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	at := func(off int) func(int) int { return func(int) int { return off } }
	newestPack := func() string { return PackName(1) } // written by checkpoint 1, not referenced by 0
	newest := func() string { return ManifestName(1) }
	cases := []struct {
		name     string
		damage   func(t *testing.T, dir string)
		fallback uint64 // manifest recovery must end up on while every tail exists
		total    bool   // recovery succeeds even with the older tail pruned
	}{
		{name: "pack-payload-bit", damage: flip(newestPack, at(packEntryHdr+5))},
		{name: "pack-header-score-bit", damage: flip(newestPack, at(3))},
		{name: "manifest-score-bit", damage: flip(newest, at(manifestHdr+4+7))},
		{name: "manifest-heapnext-bit", damage: flip(newest, at(len(manifestMagic)+8*3))},
		{name: "manifest-crc-bit", damage: flip(newest, func(size int) int { return size - 1 })},
		{name: "manifest-truncated", damage: func(t *testing.T, dir string) {
			path := filepath.Join(dir, newest())
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, fi.Size()/2); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "v1-json-manifest-newest", fallback: 1, total: true, damage: func(t *testing.T, dir string) {
			v1 := `{"format": "repro/wal-checkpoint/v1", "seq": 2, "spaceWords": 4096, "chunkWords": 64, "scores": []}`
			if err := os.WriteFile(filepath.Join(dir, "cp-00000002.json"), []byte(v1), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		for _, prune := range []bool{false, true} {
			name := tc.name + "/older-tail-kept"
			if prune {
				name = tc.name + "/older-tail-pruned"
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				want := writeState(t, dir, 4096, 64, prune, 20, 40)
				if st, words, err := recoverImage(dir); err != nil || st.CheckpointSeq != 1 || !reflect.DeepEqual(words, want) {
					t.Fatalf("undamaged directory: err=%v state=%+v", err, st)
				}
				tc.damage(t, dir)
				st, words, err := recoverImage(dir)
				if prune && !tc.total {
					if !errors.Is(err, ErrNoCheckpoint) {
						t.Fatalf("got state %+v, err %v; want an error wrapping ErrNoCheckpoint", st, err)
					}
					return
				}
				if err != nil {
					t.Fatalf("no fallback to checkpoint %d: %v", tc.fallback, err)
				}
				if st.CheckpointSeq != tc.fallback {
					t.Errorf("recovered from checkpoint %d, want %d", st.CheckpointSeq, tc.fallback)
				}
				if !reflect.DeepEqual(words, want) {
					t.Error("recovered image differs from the live image")
				}
			})
		}
	}

	// A directory whose only manifest is v1 is refused, by name.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "cp-00000000.json"), []byte(`{"format": "repro/wal-checkpoint/v1"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(dir); !errors.Is(err, ErrNoCheckpoint) || !strings.Contains(err.Error(), "wal-checkpoint/v1") {
		t.Fatalf("v1-only directory: got %v, want ErrNoCheckpoint naming the v1 format", err)
	}
}

// servedRecord is a record the size the served workloads log (≈ 2 KB:
// a few undo words, two allocation blocks, a stack frame).
func servedRecord() *Record {
	vals := make([]uint64, 240)
	for i := range vals {
		vals[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	return &Record{Kind: KindCommit, Seq: 1, Version: 2, GlobalsNext: 3, HeapNext: 4, Spans: []Span{
		{Addr: 10, Vals: vals[:1]}, {Addr: 20, Vals: vals[1:2]}, {Addr: 30, Vals: vals[2:3]},
		{Addr: 1000, Vals: vals[3:100]}, {Addr: 2000, Vals: vals[100:200]}, {Addr: 9000, Vals: vals[200:]},
	}}
}

// BenchmarkAppendRecord serializes a served-size record into a buffer
// with room for it, as Log.Append does into the tail segment under its
// mutex. It must report 0 allocs/op.
func BenchmarkAppendRecord(b *testing.B) {
	rec := servedRecord()
	buf := make([]byte, 0, 4<<10)
	b.ReportAllocs()
	for b.Loop() {
		buf = AppendRecord(buf[:0], rec)
	}
	b.SetBytes(int64(len(buf)))
}
