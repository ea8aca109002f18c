package wal

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Checkpoints are content-addressed, venti-style: the space is split
// into fixed-size chunks of words, each non-zero chunk is keyed by the
// SHA-256 of its bytes (its "score"), and only chunks whose score is not
// already stored are appended to a pack file. A sorted fixed-width
// index file per pack maps scores to pack offsets, and a fixed-width
// binary manifest per checkpoint lists the scores in space order — runs
// of all-zero chunks as a count, so its size follows the extent in use —
// plus the runtime metadata (clock, bump pointers, geometry, log cut)
// recovery needs. Successive checkpoints of a mostly-idle space
// therefore cost almost nothing: unchanged chunks dedup against the
// index.
//
// Cost model. A checkpoint streams chunks straight off the live space
// through one reusable chunk buffer: chunks the caller declares
// untouched are never read, chunks that read as all zero are never
// hashed, novel chunks go to the pack through a buffered writer. Time
// is proportional to the allocated extent, extra space to one chunk.
const (
	packEntryHdr = scoreLen + 4 // score + u32 word count
	idxEntryLen  = scoreLen + 8 + 8 + 4
	scoreLen     = 32
	chunkWords   = 1 << 12 // words per content-addressed chunk

	// manifestMagic opens every manifest; thirteen u64 fields follow
	// (see EncodeManifest), then one manifestEntry per non-zero chunk,
	// then the IEEE CRC-32 of everything before it.
	manifestMagic  = "repro/wal-checkpoint/v2\n"
	manifestFields = 13
	manifestHdr    = len(manifestMagic) + 8*manifestFields
	manifestEntry  = 4 + scoreLen
	manifestMaxDim = 1 << 40 // sanity bound on every geometry field

	manifestPattern   = "cp-%08d.ckpt"
	manifestV1Pattern = "cp-%08d.json" // refused by name, never parsed
)

// PackName, IndexName, and ManifestName name the on-disk artifacts of
// pack p / checkpoint n.
func PackName(p uint64) string     { return fmt.Sprintf("pack-%06d.pack", p) }
func IndexName(p uint64) string    { return fmt.Sprintf("pack-%06d.idx", p) }
func ManifestName(n uint64) string { return fmt.Sprintf(manifestPattern, n) }

// Score is the content address of one chunk.
type Score [scoreLen]byte

func (s Score) String() string { return hex.EncodeToString(s[:]) }

// Geometry mirrors mem.Config so a manifest fully determines the shape
// of the space being restored. wal stays a stdlib-only leaf package, so
// the fields are copied rather than importing internal/mem.
type Geometry struct {
	GlobalWords int
	HeapWords   int
	StackWords  int
	MaxThreads  int
}

// ChunkRef is one non-zero chunk of a manifest: Zeros all-zero chunks
// (which carry no score and are stored nowhere) precede it.
type ChunkRef struct {
	Zeros uint32
	Score Score
}

// Manifest is the descriptor of one checkpoint.
type Manifest struct {
	Seq, Clock, GlobalsNext, HeapNext uint64
	Geometry                          Geometry
	SpaceWords, ChunkWords            int
	// CutSeg/CutOff are the log position at snapshot time: every record
	// before the cut is reflected in the snapshot; replay starts here.
	CutSeg, CutOff uint64
	// Chunks lists the non-zero chunks in space order; every chunk after
	// the last entry is zero.
	Chunks []ChunkRef
}

// EncodeManifest serializes m: the magic, thirteen little-endian u64
// fields, one (u32 zeros, score) entry per non-zero chunk, and a CRC-32
// of all of it.
func EncodeManifest(m *Manifest) []byte {
	b := make([]byte, 0, manifestHdr+len(m.Chunks)*manifestEntry+4)
	b = append(b, manifestMagic...)
	g := m.Geometry
	for _, v := range [manifestFields]uint64{m.Seq, m.Clock, m.GlobalsNext, m.HeapNext,
		uint64(g.GlobalWords), uint64(g.HeapWords), uint64(g.StackWords), uint64(g.MaxThreads),
		uint64(m.SpaceWords), uint64(m.ChunkWords), m.CutSeg, m.CutOff, uint64(len(m.Chunks))} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	for i := range m.Chunks {
		b = binary.LittleEndian.AppendUint32(b, m.Chunks[i].Zeros)
		b = append(b, m.Chunks[i].Score[:]...)
	}
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// DecodeManifest parses and verifies one manifest. It is total: any
// input that is not a CRC-valid, structurally consistent v2 manifest is
// an error, and an accepted input re-encodes byte-identically.
func DecodeManifest(b []byte) (*Manifest, error) {
	if len(b) < manifestHdr+4 || string(b[:len(manifestMagic)]) != manifestMagic {
		return nil, fmt.Errorf("wal: not a %q manifest", strings.TrimSpace(manifestMagic))
	}
	body := b[:len(b)-4]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(b[len(body):]) {
		return nil, errors.New("wal: manifest CRC mismatch")
	}
	var f [manifestFields]uint64
	for i := range f {
		f[i] = binary.LittleEndian.Uint64(body[len(manifestMagic)+8*i:])
	}
	for _, v := range f[4:10] {
		if v > manifestMaxDim {
			return nil, errors.New("wal: manifest dimension out of range")
		}
	}
	table := body[manifestHdr:]
	if f[9] == 0 || len(table)%manifestEntry != 0 || f[12] != uint64(len(table)/manifestEntry) {
		return nil, errors.New("wal: manifest table does not match its header")
	}
	m := &Manifest{
		Seq: f[0], Clock: f[1], GlobalsNext: f[2], HeapNext: f[3],
		Geometry:   Geometry{GlobalWords: int(f[4]), HeapWords: int(f[5]), StackWords: int(f[6]), MaxThreads: int(f[7])},
		SpaceWords: int(f[8]), ChunkWords: int(f[9]), CutSeg: f[10], CutOff: f[11],
		Chunks: make([]ChunkRef, f[12]),
	}
	covered := uint64(0)
	for i := range m.Chunks {
		e := table[i*manifestEntry:]
		m.Chunks[i].Zeros = binary.LittleEndian.Uint32(e)
		copy(m.Chunks[i].Score[:], e[4:])
		covered += uint64(m.Chunks[i].Zeros) + 1
	}
	if covered > (f[8]+f[9]-1)/f[9] {
		return nil, errors.New("wal: manifest lists more chunks than the space holds")
	}
	return m, nil
}

// WordSource is the live image a checkpoint streams from; mem.Space
// satisfies it with atomic loads.
type WordSource interface {
	Size() int
	ReadWords(dst []uint64, at int) // copies len(dst) words starting at word at
}

// Extent is the word range [Lo, Hi).
type Extent struct{ Lo, Hi uint64 }

// Snapshot is the metadata of one checkpoint; the words come from the
// WordSource handed to WriteCheckpoint beside it.
type Snapshot struct {
	Clock, GlobalsNext, HeapNext uint64
	Geometry                     Geometry
	CutSeg, CutOff               uint64
	// Untouched lists ranges no one has written since the space was
	// created (the caller's guarantee, as of the log cut): a chunk lying
	// wholly inside one is recorded as zero without being read, and so is
	// the part inside one of a chunk that straddles its edge, whatever it
	// reads by then — a word written there since the cut is the redo
	// tail's to restore, and if its writer never logged it, it must not
	// come back above the recovered bump pointers, where the allocator
	// and Space.Checksum take zero for granted.
	Untouched []Extent
}

// StoreStats counts checkpoint activity.
type StoreStats struct {
	Checkpoints   uint64
	ChunksWritten uint64 // chunks appended to packs
	ChunksDeduped uint64 // chunks already present
	BytesWritten  uint64 // pack bytes appended
	ChunksHashed  uint64 // chunks read, found non-zero and scored
	ChunksZero    uint64 // chunks recorded as zero: untouched (unread) or read as all zero
}

type chunkLoc struct {
	pack   uint64
	off    int64 // offset of the entry header within the pack
	nwords int
}

// CheckpointStore owns the packs, indexes, and manifests of one
// durability directory (shared with the log's segments).
type CheckpointStore struct {
	dir        string
	chunkWords int

	mu       sync.Mutex
	index    map[Score]chunkLoc
	nextPack uint64
	nextCP   uint64
	stats    StoreStats
	chunk    []uint64 // the one chunk buffer, and its pack entry
	entry    []byte
}

// OpenStore opens dir's checkpoint store, loading every existing pack
// index so new checkpoints dedup against chunks written by earlier
// incarnations. It deletes what a crash mid-checkpoint leaves behind:
// *.tmp files and packs without an index (nothing references either).
// New checkpoints are cut into chunks of 4096 words; each manifest
// records its own chunk size, which is what recovery reads.
func OpenStore(dir string) (*CheckpointStore, error) { return openStore(dir, chunkWords) }

// openStore is OpenStore at a chunk size of cw words.
func openStore(dir string, cw int) (*CheckpointStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st := &CheckpointStore{dir: dir, chunkWords: cw, index: make(map[Score]chunkLoc)}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		var n uint64
		name := e.Name()
		stale := strings.HasSuffix(name, ".tmp") && !e.IsDir()
		switch {
		case matchName(name, "pack-%06d.idx", &n):
			if err := st.loadIndex(n); err != nil {
				return nil, err
			}
			st.nextPack = max(st.nextPack, n+1)
		case matchName(name, "pack-%06d.pack", &n):
			_, err := os.Stat(filepath.Join(dir, IndexName(n)))
			stale = os.IsNotExist(err)
		case matchName(name, manifestPattern, &n):
			st.nextCP = max(st.nextCP, n+1)
		}
		if stale {
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return nil, err
			}
		}
	}
	return st, nil
}

func matchName(name, format string, out *uint64) bool {
	var n uint64
	if _, err := fmt.Sscanf(name, format, &n); err != nil {
		return false
	}
	if fmt.Sprintf(format, n) != name {
		return false
	}
	*out = n
	return true
}

func (st *CheckpointStore) loadIndex(pack uint64) error {
	b, err := os.ReadFile(filepath.Join(st.dir, IndexName(pack)))
	if err != nil {
		return err
	}
	if len(b)%idxEntryLen != 0 {
		return fmt.Errorf("wal: index %s: size %d not a multiple of %d", IndexName(pack), len(b), idxEntryLen)
	}
	for off := 0; off < len(b); off += idxEntryLen {
		var sc Score
		copy(sc[:], b[off:])
		st.index[sc] = chunkLoc{
			pack:   binary.LittleEndian.Uint64(b[off+scoreLen:]),
			off:    int64(binary.LittleEndian.Uint64(b[off+scoreLen+8:])),
			nwords: int(binary.LittleEndian.Uint32(b[off+scoreLen+16:])),
		}
	}
	return nil
}

// ChunkWords reports the chunking granularity.
func (st *CheckpointStore) ChunkWords() int { return st.chunkWords }

// Stats returns a snapshot of the store counters.
func (st *CheckpointStore) Stats() StoreStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.stats
}

// tmpFile writes path+".tmp"; commit fsyncs it and renames it into
// place, so path either holds everything written or does not exist.
// Write errors stick in the bufio.Writer and surface at commit.
type tmpFile struct {
	path string
	f    *os.File
	w    *bufio.Writer
}

func createTmp(path string) (*tmpFile, error) {
	f, err := os.OpenFile(path+".tmp", os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	return &tmpFile{path: path, f: f, w: bufio.NewWriter(f)}, nil
}

func (t *tmpFile) commit() error {
	err := t.w.Flush()
	if err == nil {
		err = t.f.Sync()
	}
	if cerr := t.f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(t.path+".tmp", t.path)
	}
	if err != nil {
		os.Remove(t.path + ".tmp")
	}
	return err
}

func writeFileAtomic(path string, b []byte) error {
	t, err := createTmp(path)
	if err != nil {
		return err
	}
	t.w.Write(b)
	return t.commit()
}

// WriteCheckpoint walks src chunk by chunk, appends every novel chunk
// to a new pack, then writes the pack's sorted index and the manifest.
// Each file is written as .tmp and renamed — pack before index before
// manifest — so a crash mid-checkpoint leaves nothing recovery or
// OpenStore half-trusts. src may change underneath (the snapshot is
// fuzzy; the redo tail from the cut repairs it).
func (st *CheckpointStore) WriteCheckpoint(snap Snapshot, src WordSource) (m *Manifest, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()

	cw, total := st.chunkWords, src.Size()
	m = &Manifest{
		Seq: st.nextCP, Clock: snap.Clock, GlobalsNext: snap.GlobalsNext, HeapNext: snap.HeapNext,
		Geometry: snap.Geometry, SpaceWords: total, ChunkWords: cw, CutSeg: snap.CutSeg, CutOff: snap.CutOff,
	}
	if st.chunk == nil {
		st.chunk, st.entry = make([]uint64, cw), make([]byte, packEntryHdr+8*cw)
	}
	var pack *tmpFile // created at the first novel chunk
	var packOff int64
	var fresh []Score // indexed as they stream out; unindexed again on failure
	defer func() {
		if err != nil {
			for _, sc := range fresh {
				delete(st.index, sc)
			}
		}
	}()

	zeros := uint32(0)
	for lo := 0; lo < total; lo += cw {
		chunk := st.chunk[:min(cw, total-lo)]
		nonZero := uint64(0)
		if !snap.untouched(uint64(lo), uint64(lo+len(chunk))) {
			src.ReadWords(chunk, lo)
			snap.clearUntouched(chunk, uint64(lo))
			for _, w := range chunk {
				nonZero |= w
			}
		}
		if nonZero == 0 {
			zeros++
			st.stats.ChunksZero++
			continue
		}
		entry := st.entry[:packEntryHdr+8*len(chunk)]
		for i, w := range chunk {
			binary.LittleEndian.PutUint64(entry[packEntryHdr+8*i:], w)
		}
		sc := Score(sha256.Sum256(entry[packEntryHdr:]))
		st.stats.ChunksHashed++
		m.Chunks = append(m.Chunks, ChunkRef{Zeros: zeros, Score: sc})
		zeros = 0
		if _, ok := st.index[sc]; ok {
			st.stats.ChunksDeduped++
			continue
		}
		copy(entry, sc[:])
		binary.LittleEndian.PutUint32(entry[scoreLen:], uint32(len(chunk)))
		if pack == nil {
			if pack, err = createTmp(filepath.Join(st.dir, PackName(st.nextPack))); err != nil {
				return nil, err
			}
		}
		pack.w.Write(entry) // an error sticks in the Writer and fails commit
		st.index[sc] = chunkLoc{pack: st.nextPack, off: packOff, nwords: len(chunk)}
		packOff += int64(len(entry))
		fresh = append(fresh, sc)
	}

	if pack != nil {
		if err := pack.commit(); err != nil {
			return nil, err
		}
		sort.Slice(fresh, func(i, j int) bool { return bytes.Compare(fresh[i][:], fresh[j][:]) < 0 })
		idx := make([]byte, 0, len(fresh)*idxEntryLen)
		for _, sc := range fresh {
			loc := st.index[sc]
			idx = append(idx, sc[:]...)
			idx = binary.LittleEndian.AppendUint64(idx, loc.pack)
			idx = binary.LittleEndian.AppendUint64(idx, uint64(loc.off))
			idx = binary.LittleEndian.AppendUint32(idx, uint32(loc.nwords))
		}
		if err := writeFileAtomic(filepath.Join(st.dir, IndexName(st.nextPack)), idx); err != nil {
			return nil, err
		}
		st.nextPack++
		st.stats.ChunksWritten += uint64(len(fresh))
		st.stats.BytesWritten += uint64(packOff)
		fresh = nil // committed: the index on disk names them
	}

	if err := writeFileAtomic(filepath.Join(st.dir, ManifestName(m.Seq)), EncodeManifest(m)); err != nil {
		return nil, err
	}
	st.nextCP = m.Seq + 1
	st.stats.Checkpoints++
	return m, nil
}

// clearUntouched zeroes the words of chunk, which starts at word lo,
// that lie inside a declared extent.
func (s *Snapshot) clearUntouched(chunk []uint64, lo uint64) {
	hi := lo + uint64(len(chunk))
	for _, e := range s.Untouched {
		if from, to := max(e.Lo, lo), min(e.Hi, hi); from < to {
			clear(chunk[from-lo : to-lo])
		}
	}
}

// untouched reports whether [lo, hi) lies wholly inside one declared
// extent.
func (s *Snapshot) untouched(lo, hi uint64) bool {
	for _, e := range s.Untouched {
		if e.Lo <= lo && hi <= e.Hi {
			return true
		}
	}
	return false
}
