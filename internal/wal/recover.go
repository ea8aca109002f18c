package wal

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// ErrNoCheckpoint means the directory holds no loadable checkpoint
// manifest. Durable runtimes write an initial checkpoint at open, so a
// directory that ever hosted one always recovers.
var ErrNoCheckpoint = errors.New("wal: no usable checkpoint manifest")

// Recovery is a durability directory whose newest manifest that
// verifies (format, CRC, structure) has been read. Its geometry tells
// the caller what space to build; Load then fills that space in place.
type Recovery struct {
	Geometry   Geometry
	SpaceWords int

	dir   string
	index map[Score]chunkLoc
	names []string            // manifest files, newest first, from the one Geometry came from
	packs map[uint64]*os.File // one open handle per pack while Load runs
	buf   []byte              // the one read buffer
}

// RecoveredState is the outcome of Recovery.Load: everything a runtime
// needs, beside the word image Load built, to resume appending.
type RecoveredState struct {
	Clock, GlobalsNext, HeapNext uint64
	// NextSeg/NextSeq are where a re-opened log should continue.
	NextSeg, NextSeq uint64
	// CheckpointSeq is the manifest the recovery started from; Records
	// counts redo records replayed on top of it. Truncated reports that
	// a torn final record was cut off the last segment; the zero-filled
	// rest of its reservation is trimmed without it.
	CheckpointSeq, Records uint64
	Truncated              bool
}

// Recover finds the newest manifest in dir that verifies. A v1 (JSON)
// manifest is refused by name, never parsed.
func Recover(dir string) (*Recovery, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	type cand struct {
		n    uint64
		name string
	}
	var cands []cand
	for _, e := range entries {
		var n uint64
		if matchName(e.Name(), manifestPattern, &n) || matchName(e.Name(), manifestV1Pattern, &n) {
			cands = append(cands, cand{n, e.Name()})
		}
	}
	if len(cands) == 0 {
		return nil, ErrNoCheckpoint
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].n > cands[j].n })
	store, err := OpenStore(dir)
	if err != nil {
		return nil, err
	}
	r := &Recovery{dir: dir, index: store.index}
	for _, c := range cands {
		r.names = append(r.names, c.name)
	}
	var lastErr error
	for ; len(r.names) > 0; r.names = r.names[1:] {
		m, err := readManifest(dir, r.names[0])
		if err == nil {
			r.Geometry, r.SpaceWords = m.Geometry, m.SpaceWords
			return r, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("%w (last error: %v)", ErrNoCheckpoint, lastErr)
}

func readManifest(dir, name string) (*Manifest, error) {
	var n uint64
	if matchName(name, manifestV1Pattern, &n) {
		return nil, fmt.Errorf("%s: repro/wal-checkpoint/v1 manifests are not read by this version", name)
	}
	b, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		return nil, err
	}
	m, err := DecodeManifest(b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return m, nil
}

// Load rebuilds the image in words, which must be all zero and
// SpaceWords long: the chunks of the newest manifest whose every chunk
// resolves and hashes to its score are decoded straight into it (zero
// chunks are skipped), then every redo record at or after that
// manifest's log cut is replayed over it, in segment order. A decode
// failure in the final segment is a torn tail — the file is truncated
// at the last good record and recovery succeeds; a failure anywhere
// else is corruption. A manifest that cannot be loaded or whose tail is
// gone gives way to the next older one.
func (r *Recovery) Load(words []uint64) (*RecoveredState, error) {
	r.packs = make(map[uint64]*os.File)
	defer func() {
		for _, f := range r.packs {
			f.Close()
		}
	}()
	var lastErr error
	for _, name := range r.names {
		m, err := readManifest(r.dir, name)
		if err == nil && m.SpaceWords != len(words) {
			err = fmt.Errorf("%s: describes %d words, space has %d", name, m.SpaceWords, len(words))
		}
		if err != nil {
			lastErr = err
			continue
		}
		st := &RecoveredState{Clock: m.Clock, GlobalsNext: m.GlobalsNext, HeapNext: m.HeapNext, NextSeg: m.CutSeg, CheckpointSeq: m.Seq}
		if err = r.image(m, words); err == nil {
			if err = st.replayTail(r.dir, m, words); err == nil {
				return st, nil
			}
		}
		lastErr = fmt.Errorf("%s: %w", name, err)
		clear(words)
	}
	return nil, fmt.Errorf("%w (last error: %v)", ErrNoCheckpoint, lastErr)
}

// image decodes m's non-zero chunks into words. The manifest's own
// ChunkWords governs offsets. Every payload is re-hashed and compared
// with its score: the pack header's copy of the score is only a label.
func (r *Recovery) image(m *Manifest, words []uint64) error {
	c := 0
	for i := range m.Chunks {
		ref := &m.Chunks[i]
		c += int(ref.Zeros)
		lo := c * m.ChunkWords
		dst := words[lo:min(lo+m.ChunkWords, len(words))]
		c++
		loc, ok := r.index[ref.Score]
		if !ok || loc.nwords != len(dst) {
			return fmt.Errorf("chunk %s not indexed with %d words", ref.Score, len(dst))
		}
		f := r.packs[loc.pack]
		if f == nil {
			var err error
			if f, err = os.Open(filepath.Join(r.dir, PackName(loc.pack))); err != nil {
				return err
			}
			r.packs[loc.pack] = f
		}
		n := packEntryHdr + 8*len(dst)
		if cap(r.buf) < n {
			r.buf = make([]byte, n)
		}
		entry := r.buf[:n]
		if _, err := f.ReadAt(entry, loc.off); err != nil {
			return fmt.Errorf("pack %d offset %d: %w", loc.pack, loc.off, err)
		}
		payload := entry[packEntryHdr:]
		if !bytes.Equal(entry[:scoreLen], ref.Score[:]) ||
			int(binary.LittleEndian.Uint32(entry[scoreLen:])) != len(dst) ||
			Score(sha256.Sum256(payload)) != ref.Score {
			return fmt.Errorf("pack %d offset %d does not hold chunk %s", loc.pack, loc.off, ref.Score)
		}
		for j := range dst {
			dst[j] = binary.LittleEndian.Uint64(payload[8*j:])
		}
	}
	return nil
}

// readFileInto reads path into buf, growing it only when the file is
// larger, so replay holds one segment at a time.
func readFileInto(path string, buf []byte) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	n := int(fi.Size())
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	_, err = io.ReadFull(f, buf[:n])
	return buf[:n], err
}

// replayTail applies every record at or after the manifest's cut.
func (st *RecoveredState) replayTail(dir string, m *Manifest, words []uint64) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var segIdxs []uint64
	for _, e := range entries {
		var n uint64
		if matchName(e.Name(), "seg-%08d.wal", &n) && n >= m.CutSeg {
			segIdxs = append(segIdxs, n)
		}
	}
	sort.Slice(segIdxs, func(i, j int) bool { return segIdxs[i] < segIdxs[j] })
	// The cut segment may not exist (a cut past every segment), but a
	// gap in the middle of the tail is corruption.
	for i, idx := range segIdxs {
		if want := segIdxs[0] + uint64(i); idx != want {
			return fmt.Errorf("wal: segment gap: have %d, want %d", idx, want)
		}
	}
	if len(segIdxs) > 0 && segIdxs[0] != m.CutSeg {
		return fmt.Errorf("wal: tail starts at segment %d, cut is in %d", segIdxs[0], m.CutSeg)
	}

	var rec Record
	var b []byte
	for i, idx := range segIdxs {
		last := i == len(segIdxs)-1
		path := filepath.Join(dir, SegName(idx))
		if b, err = readFileInto(path, b); err != nil {
			return err
		}
		if len(b) < segHdrLen || string(b[:8]) != segMagic {
			if last {
				// Torn header: the segment was created but its header
				// never reached the file. Nothing in it was acked.
				if err := os.Remove(path); err != nil {
					return err
				}
				st.Truncated = true
				break
			}
			return fmt.Errorf("wal: segment %d: bad header", idx)
		}
		if got := binary.LittleEndian.Uint64(b[8:]); got != idx {
			return fmt.Errorf("wal: segment file %d labeled %d", idx, got)
		}
		off := segHdrLen
		if idx == m.CutSeg {
			if m.CutOff > uint64(len(b)) {
				// The cut lies beyond what reached this file: every record
				// here predates the snapshot.
				off = len(b)
			} else if m.CutOff > segHdrLen {
				off = int(m.CutOff)
			}
		}
		for off < len(b) {
			n, err := DecodeRecord(b[off:], &rec)
			if err != nil {
				if last && errors.Is(err, ErrTorn) {
					if err := os.Truncate(path, int64(off)); err != nil {
						return err
					}
					// Zeros to the end are the unused rest of the
					// segment's reservation, not a torn record.
					st.Truncated = !allZero(b[off:])
					break
				}
				return fmt.Errorf("wal: segment %d offset %d: %w", idx, off, err)
			}
			st.apply(&rec, words)
			off += n
		}
		st.NextSeg = idx + 1
	}
	return nil
}

// allZero reports whether every byte of b is zero.
func allZero(b []byte) bool {
	var zero [4096]byte
	for len(b) > 0 {
		n := min(len(b), len(zero))
		if !bytes.Equal(b[:n], zero[:n]) {
			return false
		}
		b = b[n:]
	}
	return true
}

// RemoveSegmentsBelow deletes every segment file with index < seg.
// Recovery leaves pre-cut segments from the previous incarnation on
// disk; the post-recovery checkpoint calls this to reclaim them, since
// the new log only tracks (and truncates) its own segments.
func RemoveSegmentsBelow(dir string, seg uint64) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var firstErr error
	for _, e := range entries {
		var n uint64
		if matchName(e.Name(), "seg-%08d.wal", &n) && n < seg {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

func (st *RecoveredState) apply(rec *Record, words []uint64) {
	for i := range rec.Spans {
		s := &rec.Spans[i]
		for j, v := range s.Vals {
			a := s.Addr + uint64(j)
			if a < uint64(len(words)) {
				words[a] = v
			}
		}
	}
	if rec.Version > st.Clock {
		st.Clock = rec.Version
	}
	if rec.GlobalsNext > st.GlobalsNext {
		st.GlobalsNext = rec.GlobalsNext
	}
	if rec.HeapNext > st.HeapNext {
		st.HeapNext = rec.HeapNext
	}
	if rec.Seq+1 > st.NextSeq {
		st.NextSeq = rec.Seq + 1
	}
	st.Records++
}
