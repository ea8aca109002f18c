// Package capture implements the runtime capture-analysis data
// structures from Section 3.1 of the paper: the per-transaction
// allocation log searched by every STM barrier to decide whether the
// accessed address is captured (transaction-local), and the persistent
// per-thread log behind the thread-local/read-only annotation APIs.
//
// Three interchangeable implementations are provided, filling the
// roles of the paper's Section 3.1.2:
//
//   - Tree: the precise log — a granule-hashed table of ranges with an
//     O(1) probe for hits and misses alike. It stands where the paper
//     has the search tree of Fig. 5, whose O(log n) miss cost more than
//     the barriers it elided once merged transactions held a dozen
//     ranges (see the Tree type).
//   - Array: a cache-line-sized unsorted array of ranges (bounded,
//     drops on overflow; Fig. 6)
//   - Filter: a hash table marking exact addresses (false negatives on
//     collision, never false positives; insert and remove cost one
//     slot per word where the precise log pays one per 16)
//
// All implementations are conservative: Contains may under-report
// (missing an elision opportunity) but never over-reports, which is
// the correctness requirement for a direct-update STM (Sec. 3.1.2).
package capture

import "repro/internal/mem"

// Log records the memory ranges allocated by (or annotated as private
// to) a transaction or thread, and answers containment queries from
// the STM barriers. A Log is confined to a single thread.
type Log interface {
	// Insert records the range [start, end).
	Insert(start, end mem.Addr)
	// Remove forgets the range [start, end). The pair must be exactly
	// as inserted: a range that was never recorded (e.g. dropped by a
	// bounded implementation), or a recorded start with a different
	// end, is a no-op for Tree and Array. The word-granular Filter
	// unmarks whichever of the words it still holds, which can only
	// lose elisions.
	Remove(start, end mem.Addr)
	// Contains reports whether the whole access [addr, addr+size) lies
	// inside some recorded range. It must never return true for memory
	// that is not currently recorded (no false positives).
	Contains(addr mem.Addr, size int) bool
	// Clear empties the log (called at transaction end).
	Clear()
	// Len reports how many ranges (precise log, array) or marked words
	// (filter) are currently recorded.
	Len() int
}

// Kind selects a Log implementation.
type Kind int

const (
	// KindTree is the precise log, a granule-hashed table of ranges
	// (the name is the paper's, and the engines' and reports').
	KindTree Kind = iota
	// KindArray is the bounded unsorted range array.
	KindArray
	// KindFilter is the hash-table address filter.
	KindFilter
)

// String returns the paper's name for the implementation.
func (k Kind) String() string {
	switch k {
	case KindTree:
		return "tree"
	case KindArray:
		return "array"
	case KindFilter:
		return "filter"
	}
	return "unknown"
}

// DefaultArrayCap is the number of ranges in one 64-byte cache line of
// (start, end) pairs on a 32-bit machine, the paper's Fig. 6 layout.
const DefaultArrayCap = 4

// DefaultFilterBits sizes the filter at 1<<DefaultFilterBits slots.
const DefaultFilterBits = 10

// New creates a Log of the given kind with default parameters.
func New(k Kind) Log {
	switch k {
	case KindTree:
		return NewTree()
	case KindArray:
		return NewArray(DefaultArrayCap)
	case KindFilter:
		return NewFilter(DefaultFilterBits)
	}
	panic("capture: unknown Kind")
}
