package frontend

// prefetchSet tracks prefetched blocks that have not yet been demanded,
// so the next-line prefetcher can score its usefulness. Only the Useful
// statistic depends on this set; simulation state (which blocks are in
// the cache) does not, so an approximate membership structure is safe.
type prefetchSet interface {
	// add records a freshly prefetched block.
	add(block uint64)
	// take reports whether block was recorded and removes it if so.
	take(block uint64) bool
	// reset forgets every recorded block.
	reset()
}

// prefetchFilterSlots sizes the direct-mapped filter. The next-line
// prefetcher's reach is one block past the demand stream, so live
// entries track the set of recently missed blocks — bounded in practice
// by the I-cache's block count (1K blocks for the default 64 KB / 64 B
// configuration). 16K slots keeps conflict evictions (which can only
// under-count Useful) out of the picture for realistic code footprints
// while staying a fixed 128 KB per lane;
// TestPrefetchStatsUnchangedOnSuite pins the zero-divergence claim
// against the old unbounded map.
const prefetchFilterSlots = 1 << 14

// prefetchFilter is a fixed direct-mapped replacement for the old
// unbounded map[uint64]struct{}: O(1) with no hashing, no allocation,
// and no periodic clear. Each slot stores block+1 so the zero value
// means empty; a conflicting add simply overwrites, which at worst
// drops a Useful count for the evicted block.
type prefetchFilter struct {
	slots [prefetchFilterSlots]uint64
}

func newPrefetchFilter() *prefetchFilter { return &prefetchFilter{} }

//ghrp:hotpath
func (p *prefetchFilter) add(block uint64) {
	p.slots[block%prefetchFilterSlots] = block + 1
}

//ghrp:hotpath
func (p *prefetchFilter) reset() { clear(p.slots[:]) }

//ghrp:hotpath
func (p *prefetchFilter) take(block uint64) bool {
	i := block % prefetchFilterSlots
	if p.slots[i] == block+1 {
		p.slots[i] = 0
		return true
	}
	return false
}
