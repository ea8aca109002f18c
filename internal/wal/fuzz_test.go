package wal_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/wal"
	"repro/tm"

	_ "repro/internal/scenarios/tmkv"
	_ "repro/internal/scenarios/tmmsg"
)

// scenarioFrames drives one registered workload on a durable runtime and
// carves the resulting redo log into individual record frames — real
// write logs (tmkv's table updates, tmmsg's topic appends) rather than
// synthetic records, so the fuzz corpus starts from the shapes the
// commit pipeline actually emits.
func scenarioFrames(f *testing.F, bench string, max int) [][]byte {
	w, err := tm.NewWorkload(bench)
	if err != nil {
		f.Fatal(err)
	}
	dir := f.TempDir()
	rt := tm.Open(tm.WithMemory(w.MemConfig()),
		tm.WithDurability(dir, tm.DurNoFsync()))
	w.Setup(rt)
	w.Run(rt, 1)
	if err := rt.Close(); err != nil {
		f.Fatal(err)
	}

	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil {
		f.Fatal(err)
	}
	sort.Strings(segs)
	var frames [][]byte
	for _, seg := range segs {
		b, err := os.ReadFile(seg)
		if err != nil {
			f.Fatal(err)
		}
		if len(b) < 16 {
			continue
		}
		b = b[16:] // segment header
		var rec wal.Record
		for len(b) > 0 && len(frames) < max {
			n, err := wal.DecodeRecord(b, &rec)
			if err != nil {
				f.Fatalf("%s: carving seed frames from %s: %v", bench, seg, err)
			}
			frames = append(frames, append([]byte(nil), b[:n]...))
			b = b[n:]
		}
	}
	if len(frames) == 0 {
		f.Fatalf("%s: durable run produced no redo records", bench)
	}
	return frames
}

// FuzzRedoRecord asserts the record codec is total: DecodeRecord never
// panics on arbitrary bytes, every accepted input round-trips through
// AppendRecord byte-identically, and every rejection is one of the two
// documented error classes (torn vs corrupt). The seed corpus is carved
// from real tmkv and tmmsg redo logs plus a truncation ladder over one
// real frame.
func FuzzRedoRecord(f *testing.F) {
	for _, bench := range []string{"tmkv", "tmmsg"} {
		frames := scenarioFrames(f, bench, 24)
		for _, fr := range frames {
			f.Add(fr)
		}
		// A truncation ladder over the first frame seeds the torn-tail
		// paths (short header, short payload, bad CRC window).
		for cut := 0; cut < len(frames[0]) && cut < 64; cut += 7 {
			f.Add(frames[0][:cut])
		}
	}
	f.Add([]byte{})
	f.Add([]byte("REDO"))

	f.Fuzz(func(t *testing.T, b []byte) {
		var rec wal.Record
		n, err := wal.DecodeRecord(b, &rec)
		if err != nil {
			if !errors.Is(err, wal.ErrTorn) && !errors.Is(err, wal.ErrCorrupt) {
				t.Fatalf("decode error is neither torn nor corrupt: %v", err)
			}
			return
		}
		if n <= 0 || n > len(b) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(b))
		}
		enc := wal.AppendRecord(nil, &rec)
		if !bytes.Equal(enc, b[:n]) {
			t.Fatalf("re-encoding differs from accepted input:\n got %x\nwant %x", enc, b[:n])
		}
		var rec2 wal.Record
		n2, err := wal.DecodeRecord(enc, &rec2)
		if err != nil || n2 != len(enc) {
			t.Fatalf("re-decode: n=%d err=%v", n2, err)
		}
	})
}

// FuzzManifest asserts the manifest codec is total: DecodeManifest
// never panics, accepts only input whose trailing CRC-32 matches its
// body, and every accepted input re-encodes byte-identically. Seeds are
// the manifests of a real tmkv run plus a truncation ladder and a
// synthetic edge case.
func FuzzManifest(f *testing.F) {
	w, err := tm.NewWorkload("tmkv")
	if err != nil {
		f.Fatal(err)
	}
	dir := f.TempDir()
	rt := tm.Open(tm.WithMemory(w.MemConfig()), tm.WithDurability(dir, tm.DurNoFsync()))
	w.Setup(rt)
	if err := rt.Checkpoint(); err != nil {
		f.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		f.Fatal(err)
	}
	manifests, err := filepath.Glob(filepath.Join(dir, "cp-*.ckpt"))
	if err != nil || len(manifests) < 2 {
		f.Fatalf("durable run left manifests %v (err %v), want the initial and the explicit one", manifests, err)
	}
	for _, path := range manifests {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		for cut := 0; cut < len(b) && cut < 256; cut += 23 {
			f.Add(b[:cut])
		}
	}
	f.Add(wal.EncodeManifest(&wal.Manifest{SpaceWords: 10, ChunkWords: 4, Chunks: []wal.ChunkRef{{Zeros: 2}}}))
	f.Add([]byte(`{"format": "repro/wal-checkpoint/v1"}`))

	check := func(t *testing.T, b []byte) {
		m, err := wal.DecodeManifest(b)
		if err != nil {
			return
		}
		if crc32.ChecksumIEEE(b[:len(b)-4]) != binary.LittleEndian.Uint32(b[len(b)-4:]) {
			t.Fatal("accepted a manifest whose CRC does not match")
		}
		if enc := wal.EncodeManifest(m); !bytes.Equal(enc, b) {
			t.Fatalf("re-encoding differs from accepted input:\n got %x\nwant %x", enc, b)
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		check(t, b)
		// The fuzzer cannot forge a CRC, so also seal the mutated body:
		// this is what reaches the structural checks behind it.
		if len(b) >= 4 {
			body := b[:len(b)-4]
			check(t, binary.LittleEndian.AppendUint32(bytes.Clone(body), crc32.ChecksumIEEE(body)))
		}
	})
}
