package frontend

import (
	"errors"
	"reflect"
	"slices"
)

// Warm-up changes no simulated state, so a fan-out counts from the first
// record and subtracts the counters saved at the record that ended it
// (DESIGN.md §5, "One pass: warm-up from the stream").

// WarmupFromStream is the warm-up limit that has StreamProgram derive
// the limit from the stream it replays: WarmupFor of the stream's total
// instruction count, in the same single execution of the program. Only
// StreamProgram knows a stream's target, so Process and Results panic
// under it until a stream has settled the limit.
const WarmupFromStream = ^uint64(0)

var errNoWindow = errors.New("frontend: WarmupFromStream needs StreamProgram; pass an explicit warm-up limit to replay records")

// WarmupFor derives the warm-up instruction count for a trace of the
// given length under cfg: half the instructions, capped (§IV-C). It is
// monotone in the length.
func (c Config) WarmupFor(totalInstructions uint64) uint64 {
	w := uint64(float64(totalInstructions) * c.WarmupFraction)
	if w > c.WarmupCap {
		w = c.WarmupCap
	}
	return w
}

// window arms marks for the records that cross any warm-up limit in
// [lo, hi]. A limit of 0 means no warm-up and needs no mark: the zero
// mark every reset leaves first stands for it.
func (f *front) window(lo, hi uint64) { f.markLo, f.markHi = max(lo, 1), hi }

// mark saves, after a marked record, the front's counters that warm-up
// excludes. Marks keep their storage across resets, so once they have
// held a stream's marks this allocates nothing.
//
//ghrp:hotpath
func (f *front) mark() {
	n := len(f.marks)
	f.marks = slices.Grow(f.marks, 1)[:n+1]
	f.marks[n] = Result{CountedInstrs: f.instrs, Branch: f.bpred.Stats(), RAS: f.ras.Stats(), Indirect: f.ind.Stats()}
}

// mark saves the lane's counters after a marked record, like the
// front's.
//
//ghrp:hotpath
func (l *lane) mark() {
	n := len(l.marks)
	l.marks = slices.Grow(l.marks, 1)[:n+1]
	l.marks[n] = Result{ICache: l.icache.Stats(), BTB: l.ibtb.Stats(), Prefetch: l.prefStats}
}

// warmEnd returns the index of the mark that ends warm-up, the first at
// or past the limit, or len(marks) while warm-up outlasts the records.
func (f *front) warmEnd() int {
	for k := range f.marks {
		if f.marks[k].CountedInstrs >= f.warmupLimit {
			return k
		}
	}
	return len(f.marks)
}

// subtract takes the counters in m from r's, field by field. A Result
// holds nothing but unsigned counters and structs of them, and the
// fields a mark leaves zero pass through.
func subtract(r, m *Result) { subtractValue(reflect.ValueOf(r).Elem(), reflect.ValueOf(m).Elem()) }

func subtractValue(r, m reflect.Value) {
	for i := 0; i < r.NumField(); i++ {
		if f := r.Field(i); f.Kind() == reflect.Struct {
			subtractValue(f, m.Field(i))
		} else {
			f.SetUint(f.Uint() - m.Field(i).Uint())
		}
	}
}
