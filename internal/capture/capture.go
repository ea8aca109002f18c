// Package capture implements the runtime capture-analysis data
// structure from Section 3.1 of the paper: the allocation log searched
// by every STM barrier to decide whether the accessed address is
// captured (transaction-local), kept per transaction and, for the
// thread-local/read-only annotation APIs, per thread.
//
// The log is Tree, a precise granule-hashed table of ranges with an
// O(1) probe for hits and misses alike. It stands where the paper has
// the search tree of Fig. 5, whose O(log n) miss cost more than the
// barriers it elided once merged transactions held a dozen ranges (see
// the Tree type). The paper's two cheaper alternatives of Sec. 3.1.2,
// a one-line range array (Fig. 6) and an address filter, are not
// here: on the benchmark rig the filter resolved on no end-to-end
// metric against the tree and the array lost throughput and tail
// latency on the contended cell (README, Measuring). The STM keeps the
// table behind two compares of its own (stm's nursery runs), so only
// blocks a transaction did not allocate back to back reach it.
//
// Contains is conservative in the paper's sense and exact besides: it
// never reports memory that is not recorded, which is the correctness
// requirement for a direct-update STM (Sec. 3.1.2), and it finds every
// recorded word.
package capture

// Kind names the allocation log. It has one value and, with New, stays
// only because the benchmark rig's capture probe (benchmark/probes.go)
// builds its log as New(KindTree); both go once the rig calls NewTree.
type Kind int

// KindTree is the precise log.
const KindTree Kind = 0

// New returns an empty Tree.
func New(Kind) *Tree { return NewTree() }
