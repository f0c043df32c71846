package frontend

// RAS is a return address stack, the structure real front ends use to
// predict return targets (which is why returns do not occupy BTB entries
// in this model — §record.UsesBTB). It is a fixed-depth circular stack:
// overflow overwrites the oldest entry, underflow mispredicts, exactly
// like hardware.
type RAS struct {
	entries []uint64
	top     int // index of the next free slot
	depth   int // current valid depth (<= len(entries))
	stats   RASStats
}

// RASStats counts return-target prediction outcomes.
type RASStats struct {
	Pushes      uint64
	Pops        uint64
	Correct     uint64
	Mispredicts uint64
	Underflows  uint64
	Overflows   uint64
}

// Accuracy returns the fraction of correctly predicted return targets.
func (s RASStats) Accuracy() float64 {
	if s.Pops == 0 {
		return 0
	}
	return float64(s.Correct) / float64(s.Pops)
}

// NewRAS returns a stack with the given capacity (16-64 in real cores).
func NewRAS(capacity int) *RAS {
	if capacity < 1 {
		capacity = 1
	}
	return &RAS{entries: make([]uint64, capacity)}
}

// Push records a call's return address.
func (r *RAS) Push(returnAddr uint64) {
	r.entries[r.top] = returnAddr
	r.top = (r.top + 1) % len(r.entries)
	if r.depth < len(r.entries) {
		r.depth++
	} else {
		r.stats.Overflows++
	}
	r.stats.Pushes++
}

// Pop predicts a return target and scores it against the actual target.
func (r *RAS) Pop(actual uint64) (predicted uint64, correct bool) {
	r.stats.Pops++
	if r.depth == 0 {
		r.stats.Underflows++
		r.stats.Mispredicts++
		return 0, false
	}
	r.top = (r.top - 1 + len(r.entries)) % len(r.entries)
	r.depth--
	predicted = r.entries[r.top]
	if predicted == actual {
		r.stats.Correct++
		return predicted, true
	}
	r.stats.Mispredicts++
	return predicted, false
}

// Stats returns the accumulated counters.
func (r *RAS) Stats() RASStats { return r.stats }

// ResetStats clears statistics while keeping the stack contents.
func (r *RAS) ResetStats() { r.stats = RASStats{} }

// Reset clears everything, stack slots included, returning the stack to
// the state NewRAS builds.
//
//ghrp:hotpath
func (r *RAS) Reset() {
	clear(r.entries)
	r.top, r.depth = 0, 0
	r.stats = RASStats{}
}
