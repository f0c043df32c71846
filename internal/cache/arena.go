package cache

// Arena carves contiguous []uint64 slabs for the hot state of many
// caches (a BTB is a cache plus a target slab). A fan-out that
// builds its N policy lanes from one arena keeps every lane's tag and
// validity state in a single allocation, so the per-record sweep over
// the lanes walks one slab instead of N scattered heap objects.
//
// An arena never frees: it exists for construction-time carving, and
// the slab lives exactly as long as the structures built from it.
type Arena struct {
	words []uint64
	off   int
}

// NewArena returns an arena holding the given number of uint64 words.
// Size it with the HotWords helpers of the structures to be carved.
func NewArena(words int) *Arena {
	if words < 0 {
		words = 0
	}
	return &Arena{words: make([]uint64, words)}
}

// ArenaWords carves n zeroed words from a (which may be nil), for
// per-frame payload that sibling packages keep beside a Cache's tags in
// the same slab: the BTB's target slab, indexed like the frames
// AccessWith reports.
func ArenaWords(a *Arena, n int) []uint64 { return a.take(n) }

// take carves n zeroed words. A nil arena, or one with too little left,
// degrades to a private allocation — callers that mis-size an arena
// lose contiguity, never correctness. The returned slice is capacity-
// clamped so an append cannot bleed into the next carving.
func (a *Arena) take(n int) []uint64 {
	if a == nil || len(a.words)-a.off < n {
		return make([]uint64, n)
	}
	s := a.words[a.off : a.off+n : a.off+n]
	a.off += n
	return s
}
