// Package wal is the durability tier of the runtime: a segmented
// append-only redo log with group commit, content-addressed checkpoint
// packs, and recovery (last checkpoint + redo tail replay). A record's
// bytes are in the page cache when Log.Append returns; with fsync on,
// its ack completes after the flusher's fdatasync.
//
// The package speaks raw words and addresses (uint64), not STM types:
// the stm layer serializes each committed transaction's write log into
// a Record and the tm layer owns checkpoint/recovery policy, so wal
// depends only on the standard library and sits below both.
//
// The package is layered:
//
//	record.go     the redo-record codec (framing, CRC, torn-tail)
//	log.go        segmented append-only log + group-commit flusher
//	seg_linux.go  the platform pair: reserve a segment file, sync it
//	seg_other.go  and its directory
//	checkpoint.go content-addressed snapshot packs + manifests
//	recover.go    checkpoint load + redo-tail replay
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
)

// Kind classifies a redo record.
type Kind uint8

const (
	// KindCommit is a committed transaction's redo record: the final
	// values of every word the transaction changed.
	KindCommit Kind = 1
	// KindAbort is an aborted transaction's residue record: undo-restored
	// values plus the checksum-visible scribbles (freed allocation
	// contents, popped stack garbage) the abort leaves behind.
	KindAbort Kind = 2
	// KindNonTx journals a non-transactional mutation (Thread.Store,
	// Thread.Alloc, Thread.StackPush) made while a durable runtime is
	// open.
	KindNonTx Kind = 3
	// KindSeal marks a clean shutdown; it carries the final clock and
	// bump pointers and no spans.
	KindSeal Kind = 4
)

// String names the kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case KindCommit:
		return "commit"
	case KindAbort:
		return "abort"
	case KindNonTx:
		return "nontx"
	case KindSeal:
		return "seal"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Span is one contiguous run of words in a record: replay stores
// Vals[i] at Addr+i. Spans are applied in order; later spans win where
// they overlap earlier ones.
type Span struct {
	Addr uint64
	Vals []uint64
}

// Record is one redo-log entry. Replaying records in log order over a
// checkpoint snapshot reconstructs the exact word-for-word state of the
// address space: commit records are enqueued while the committing
// transaction still holds its ownership records, so log order respects
// conflict order.
type Record struct {
	Kind Kind
	// Seq is the log-assigned monotonic record number (Log.Append).
	Seq uint64
	// Version is the global-clock value associated with the record: the
	// write version of a commit, the current clock otherwise. Recovery
	// restores the clock to the maximum seen.
	Version uint64
	// GlobalsNext and HeapNext are the allocator bump pointers at record
	// build time; recovery restores each to the maximum seen so
	// re-opened runtimes never re-carve memory that holds live data.
	GlobalsNext uint64
	HeapNext    uint64
	Spans       []Span
}

// Words sums the span lengths.
func (r *Record) Words() int {
	n := 0
	for i := range r.Spans {
		n += len(r.Spans[i].Vals)
	}
	return n
}

// Frame layout, little endian:
//
//	u32 magic "REDO"
//	u32 payload length
//	u32 IEEE CRC-32 of the payload
//	payload
//
// Payload:
//
//	u8  kind
//	u64 seq, version, globalsNext, heapNext
//	u32 span count; then per span: u64 addr, u32 words, words×u64
const (
	recordMagic   = 0x4F444552 // "REDO"
	frameHdrLen   = 12
	payloadFixed  = 1 + 4*8 + 4
	spanHdrLen    = 8 + 4
	maxPayloadLen = 1 << 28 // 256 MiB: far above any real record
)

// ErrTorn reports an incomplete or garbled record frame — the expected
// state of a log tail after a crash mid-write. Recovery truncates a
// torn tail of the final segment and fails on one anywhere else.
var ErrTorn = errors.New("wal: torn record")

// ErrCorrupt reports a frame whose checksum verifies but whose payload
// is structurally invalid — an encoder bug or deliberate tampering,
// never a crash artifact.
var ErrCorrupt = errors.New("wal: corrupt record payload")

// AppendRecord serializes r onto dst and returns the extended slice. It
// allocates only if dst lacks the capacity.
func AppendRecord(dst []byte, r *Record) []byte {
	base, n := len(dst), recordLen(r)
	dst = slices.Grow(dst, n)[:base+n]
	putRecord(dst[base:], r)
	return dst
}

// recordLen is the framed length of r.
func recordLen(r *Record) int {
	n := frameHdrLen + payloadFixed
	for i := range r.Spans {
		n += spanHdrLen + 8*len(r.Spans[i].Vals)
	}
	return n
}

// putRecord serializes r into b, which is exactly recordLen(r) bytes.
// It writes every byte of b, so b need not be cleared.
func putRecord(b []byte, r *Record) {
	binary.LittleEndian.PutUint32(b[0:], recordMagic)
	binary.LittleEndian.PutUint32(b[4:], uint32(len(b)-frameHdrLen))
	p := b[frameHdrLen:]
	p[0] = byte(r.Kind)
	binary.LittleEndian.PutUint64(p[1:], r.Seq)
	binary.LittleEndian.PutUint64(p[9:], r.Version)
	binary.LittleEndian.PutUint64(p[17:], r.GlobalsNext)
	binary.LittleEndian.PutUint64(p[25:], r.HeapNext)
	binary.LittleEndian.PutUint32(p[33:], uint32(len(r.Spans)))
	off := payloadFixed
	for i := range r.Spans {
		s := &r.Spans[i]
		binary.LittleEndian.PutUint64(p[off:], s.Addr)
		binary.LittleEndian.PutUint32(p[off+8:], uint32(len(s.Vals)))
		off += spanHdrLen
		for _, v := range s.Vals {
			binary.LittleEndian.PutUint64(p[off:], v)
			off += 8
		}
	}
	binary.LittleEndian.PutUint32(b[8:], crc32.ChecksumIEEE(p))
}

// DecodeRecord parses one record from the front of b into r (reusing
// r's span and value storage) and returns the number of bytes consumed.
// A frame that is incomplete, has a bad magic, or fails its checksum
// returns ErrTorn; a checksummed but structurally invalid payload
// returns ErrCorrupt.
func DecodeRecord(b []byte, r *Record) (int, error) {
	if len(b) < frameHdrLen {
		return 0, ErrTorn
	}
	if binary.LittleEndian.Uint32(b[0:]) != recordMagic {
		return 0, ErrTorn
	}
	plen := int(binary.LittleEndian.Uint32(b[4:]))
	if plen < payloadFixed || plen > maxPayloadLen {
		return 0, ErrTorn
	}
	if len(b) < frameHdrLen+plen {
		return 0, ErrTorn
	}
	p := b[frameHdrLen : frameHdrLen+plen]
	if crc32.ChecksumIEEE(p) != binary.LittleEndian.Uint32(b[8:]) {
		return 0, ErrTorn
	}
	r.Kind = Kind(p[0])
	r.Seq = binary.LittleEndian.Uint64(p[1:])
	r.Version = binary.LittleEndian.Uint64(p[9:])
	r.GlobalsNext = binary.LittleEndian.Uint64(p[17:])
	r.HeapNext = binary.LittleEndian.Uint64(p[25:])
	nspans := int(binary.LittleEndian.Uint32(p[33:]))
	if nspans < 0 || nspans > (plen-payloadFixed)/spanHdrLen {
		return 0, ErrCorrupt
	}
	if cap(r.Spans) < nspans {
		r.Spans = make([]Span, nspans)
	}
	r.Spans = r.Spans[:nspans]
	off := payloadFixed
	for i := 0; i < nspans; i++ {
		if plen-off < spanHdrLen {
			return 0, ErrCorrupt
		}
		addr := binary.LittleEndian.Uint64(p[off:])
		n := int(binary.LittleEndian.Uint32(p[off+8:]))
		off += spanHdrLen
		if n < 0 || n > (plen-off)/8 {
			return 0, ErrCorrupt
		}
		s := &r.Spans[i]
		s.Addr = addr
		if cap(s.Vals) < n {
			s.Vals = make([]uint64, n)
		}
		s.Vals = s.Vals[:n]
		for j := 0; j < n; j++ {
			s.Vals[j] = binary.LittleEndian.Uint64(p[off:])
			off += 8
		}
	}
	if off != plen {
		return 0, ErrCorrupt
	}
	return frameHdrLen + plen, nil
}
