package frontend

import "slices"

// AccessLog is a caller-owned record of a fan-out's demand I-cache
// accesses: the block of every coalesced access its lanes replay, in
// order and warm-up included, and Skip, how many leading Blocks belong
// to records decided during warm-up (0 without one). Offline oracles
// read it — Belady's MIN as opt.Simulate(Blocks, sets, ways, Skip),
// reuse-distance profiles — so they see exactly the stream the policies
// saw. Wrong-path and prefetch fills are not demand accesses and are not
// logged.
type AccessLog struct {
	Blocks []uint64
	Skip   int
}

// add appends the accesses of one complete decision chunk. The chunk's
// access pool holds its records' access lists end to end, in record
// order, and warm records are a prefix of the stream.
//
//ghrp:hotpath
func (l *AccessLog) add(ch *decChunk) {
	n := len(l.Blocks)
	// The log keeps its capacity across resets, so once it has held the
	// longest stream logged the tap allocates nothing (TestAccessTapAllocs).
	l.Blocks = slices.Grow(l.Blocks, len(ch.accesses))[:n+len(ch.accesses)]
	for i := range ch.accesses {
		l.Blocks[n+i] = ch.accesses[i].block
	}
	for i := 0; i < len(ch.recs) && ch.recs[i].flags&chunkWarm != 0; i++ {
		l.Skip = n + int(ch.recs[i].accOff+ch.recs[i].accLen)
	}
}

// TapAccesses attaches log to the fan-out, emptied, before the first
// record: every chunk the lanes replay from then on appends its demand
// accesses to it. A nil log detaches the tap. Reset empties an attached
// log and leaves it attached, as it does with efficiency tracking.
func (fo *FanOut) TapAccesses(log *AccessLog) {
	fo.tap = log
	if log != nil {
		log.Blocks, log.Skip = log.Blocks[:0], 0
	}
}
