package frontend

import (
	"sync"

	"ghrpsim/internal/trace"
	"ghrpsim/internal/workload"
)

// Checkpoint-log parallel fan-out. The serial StreamProgram already
// factors a record stream into policy-independent decision chunks
// (chunk.go); here the same chunks become the communication log of a
// producer/worker pipeline. One goroutine runs the workload interpreter
// and the front — the only stateful, order-sensitive part — and
// publishes each filled chunk to every worker. Workers own disjoint
// lane subsets and replay chunks strictly in publication order, so each
// lane sees exactly the serial op sequence and results stay
// bit-identical for any worker count; TestFanOutParallelMatchesSerial
// pins that.
//
// Memory is bounded by a free list of poolChunks chunks, owned by the
// FanOut and reused across calls: the producer blocks once all are in
// flight, and the last worker to finish a chunk returns it. Lane subsets
// are contiguous stripes, so a worker's lanes are adjacent in the lane
// slab.

// poolChunks bounds the chunks in flight between producer and workers.
// Two keeps the producer a full chunk ahead of the slowest worker; a
// couple more absorb scheduling jitter without growing the hot working
// set past the point of diminishing returns.
const poolChunks = 4

// StreamProgramParallel is StreamProgram with lane replay spread over
// up to workers goroutines. Worker counts of one or less (or a single
// lane) fall back to the serial path. The returned results are
// bit-identical to StreamProgram's regardless of worker count.
func (fo *FanOut) StreamProgramParallel(prog *workload.Program, seed, target uint64, workers int, opts StreamOptions) ([]Result, error) {
	if workers > len(fo.lanes) {
		workers = len(fo.lanes)
	}
	if workers <= 1 {
		return fo.StreamProgram(prog, seed, target, opts)
	}

	free := make(chan *decChunk, poolChunks)
	for _, ch := range fo.chunkPool(poolChunks) {
		free <- ch
	}
	// Per-worker queues sized to the pool, so publishing never blocks on
	// a queue: at most poolChunks chunks exist.
	queues := make([]chan *decChunk, workers)
	for w := range queues {
		queues[w] = make(chan *decChunk, poolChunks)
	}

	var wg sync.WaitGroup
	wg.Add(workers)
	lo := 0
	for w := 0; w < workers; w++ {
		hi := lo + len(fo.lanes)/workers
		if w < len(fo.lanes)%workers {
			hi++
		}
		go func(lanes []lane, in chan *decChunk) {
			defer wg.Done()
			for ch := range in {
				for i := range lanes {
					lanes[i].replay(ch)
				}
				if ch.refs.Add(-1) == 0 {
					free <- ch
				}
			}
		}(fo.lanes[lo:hi], queues[w])
		lo = hi
	}

	// drain closes the queues and waits for the workers. It also runs if
	// the producer panics (in a progress callback, say), so no worker
	// outlives the call or touches the lanes afterwards.
	drained := false
	drain := func() {
		if drained {
			return
		}
		drained = true
		for _, q := range queues {
			close(q)
		}
		wg.Wait()
	}
	defer drain()

	publish := func(ch *decChunk) {
		ch.refs.Store(int32(workers))
		for _, q := range queues {
			q <- ch
		}
	}

	every := opts.ProgressEvery
	if every == 0 {
		every = DefaultProgressEvery
	}
	ch := <-free
	ch.reset()
	var n uint64
	_, err := workload.Emit(prog, seed, target, func(r trace.Record) error {
		fo.front.decide(r, &fo.front.dec)
		ch.push(&fo.front.dec)
		if ch.full() {
			publish(ch)
			ch = <-free
			ch.reset()
		}
		if opts.Progress != nil {
			n++
			if n%every == 0 {
				return opts.Progress(n, fo.front.instrs)
			}
		}
		return nil
	})
	if err == nil && !ch.empty() {
		publish(ch)
	}
	drain()
	if err != nil {
		return nil, err
	}
	return fo.Results(), nil
}

// SimulateFanOutSplit is SimulateFanOut with intra-workload
// parallelism: one interpreter/front pass feeds every policy lane, and
// lane replay is spread over up to workers goroutines. Results are
// bit-identical to SimulateFanOut's.
func SimulateFanOutSplit(cfg Config, kinds []PolicyKind, prog *workload.Program, seed, target, warmupLimit uint64, workers int, opts StreamOptions) ([]Result, error) {
	fo, err := NewFanOut(cfg, kinds, warmupLimit)
	if err != nil {
		return nil, err
	}
	return fo.StreamProgramParallel(prog, seed, target, workers, opts)
}
