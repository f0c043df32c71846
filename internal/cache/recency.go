package cache

// Recency tracks per-frame last-use times to give a replacement policy
// its LRU order: the one tracker behind LRU, FIFO (which touches only on
// insertion), DIP, SDBP and both GHRP policies. A 64-bit timestamp is behaviorally identical to a
// log2(ways)-bit LRU stack; hardware would keep the compact encoding.
type Recency struct {
	ways int
	last []uint64
	now  uint64
}

// Attach sizes the tracker for the geometry and clears it.
func (r *Recency) Attach(sets, ways int) {
	r.ways = ways
	r.last = make([]uint64, sets*ways)
	r.now = 0
}

// Touch makes way the most recently used in set.
func (r *Recency) Touch(set, way int) {
	r.now++
	r.last[set*r.ways+way] = r.now
}

// Now returns the clock: how many touches have been made.
func (r *Recency) Now() uint64 { return r.now }

// In returns set's timestamps, indexed by way; larger is more recent and
// 0 means never touched. The slice aliases the tracker.
func (r *Recency) In(set int) []uint64 {
	base := set * r.ways
	return r.last[base : base+r.ways : base+r.ways]
}

// LRU returns the least recently used way in set, the lowest way on a
// tie.
func (r *Recency) LRU(set int) int {
	ts := r.In(set)
	best, bestAt := 0, ts[0]
	for w := 1; w < len(ts); w++ {
		if ts[w] < bestAt {
			best, bestAt = w, ts[w]
		}
	}
	return best
}

// Demote puts way at (or tied for) the LRU position of set without
// advancing the clock: its timestamp becomes one below the set's oldest,
// way's own included, floored at 0. This is bimodal insertion's LRU
// placement.
func (r *Recency) Demote(set, way int) {
	ts := r.In(set)
	min := ts[0]
	for _, at := range ts[1:] {
		if at < min {
			min = at
		}
	}
	if min > 0 {
		min--
	}
	ts[way] = min
}

// Reset clears every timestamp and the clock.
//
//ghrp:hotpath
func (r *Recency) Reset() {
	clear(r.last)
	r.now = 0
}
