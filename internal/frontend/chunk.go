package frontend

import (
	"sync/atomic"

	"ghrpsim/internal/btb"
	"ghrpsim/internal/cache"
)

// Chunked lane-major replay. Sweeping all N specialized lane bodies
// once per record would make the host CPU alternate between N distinct
// instruction footprints tens of millions of times per second — the
// code-size cost of specialization turned into an instruction-cache
// thrash. Instead, front.decide runs for a block of records first,
// serializing each record's lane-facing decisions into a decChunk, and
// then each lane replays the whole chunk in one burst. Every
// specialized body runs for chunkRecords records per activation, and a
// lane's cache, BTB and policy tables stay hot across the burst.
//
// A chunk is exactly a reified sequence of per-record decisions, and a
// lane applies each record's decisions in a fixed order, so where a
// stream is cut into chunks cannot change a result. The
// checkpoint-parallel path (fanlog.go) ships these same chunks to
// worker goroutines.

// chunkRecords is the record capacity of one chunk: large enough to
// amortize the per-lane body switch and keep a lane's tables hot,
// small enough that a chunk (records + flattened accesses) stays well
// inside the L2 working set alongside two lanes' hot state.
const chunkRecords = 8192

// chunk record flags.
const (
	chunkInject = 1 << iota // wrong-path injection follows the accesses
	chunkBTB                // BTB probe for a taken branch
	chunkMark               // the record may end warm-up: save counters after it (warmup.go)
)

// blockAccess is one I-cache access of a record's fetch group: the
// block and the PC the access is attributed to.
type blockAccess struct {
	block uint64
	pc    uint64
}

// decRec is one record's decisions, as front.decide appends them: the
// policy-independent digest of one branch record — everything a lane
// needs to advance, and nothing else. Its I-cache access list lives
// flattened in the chunk's shared pool.
type decRec struct {
	accOff    uint32
	accLen    uint32
	flags     uint8
	wrongPC   uint64 // with chunkInject
	btbPC     uint64 // with chunkBTB
	btbTarget uint64 // with chunkBTB
}

// decChunk holds the decisions of up to chunkRecords records. decide
// writes accesses and records into the chunk itself, so a filled chunk
// is self-contained and safe to hand to another goroutine.
type decChunk struct {
	recs     []decRec
	accesses []blockAccess
	// refs counts the workers still due to replay this chunk on the
	// parallel path (fanlog.go); the serial path leaves it at zero.
	refs atomic.Int32
}

func newDecChunk() *decChunk {
	return &decChunk{
		recs: make([]decRec, 0, chunkRecords),
		// Fetch groups average one to two coalesced accesses per record.
		accesses: make([]blockAccess, 0, 2*chunkRecords),
	}
}

func (ch *decChunk) full() bool  { return len(ch.recs) >= chunkRecords }
func (ch *decChunk) empty() bool { return len(ch.recs) == 0 }

func (ch *decChunk) reset() {
	ch.recs = ch.recs[:0]
	ch.accesses = ch.accesses[:0]
}

// replayChunk advances one lane through every record of a chunk,
// applying each record's decisions in a fixed order: I-cache accesses,
// wrong-path injection, BTB probe, warm-up mark.
//
//ghrp:hotpath
func replayChunk[IP, BP cache.Policy](l *lane, ip IP, bp BP, ch *decChunk) {
	for i := range ch.recs {
		r := &ch.recs[i]
		acc := ch.accesses[r.accOff : r.accOff+r.accLen]
		for j := range acc {
			laneAccess(l, ip, acc[j].block, acc[j].pc)
		}
		if r.flags&chunkInject != 0 {
			laneInject(l, ip, r.wrongPC)
		}
		if r.flags&chunkBTB != 0 {
			btb.AccessWith(&l.ibtb, bp, r.btbPC, r.btbTarget)
		}
		if r.flags&chunkMark != 0 {
			l.mark()
		}
	}
}
