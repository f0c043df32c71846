package frontend

import (
	"sync"

	"ghrpsim/internal/trace"
	"ghrpsim/internal/workload"
)

// Checkpoint-log parallel fan-out. The serial stream already factors a
// record stream into policy-independent decision chunks (chunk.go);
// with more than one worker, StreamProgram makes the same chunks the
// communication log of a producer/worker pipeline. One goroutine runs
// the workload interpreter and the front — the only stateful,
// order-sensitive part — and publishes each filled chunk to every
// worker. Workers own disjoint lane subsets and replay chunks strictly
// in publication order, so each lane sees exactly the serial op
// sequence and results stay bit-identical for any worker count;
// TestFanOutParallelMatchesSerial pins that.
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

// chunkPool returns the fan-out's first n decision chunks, allocating
// any that do not exist yet.
func (fo *FanOut) chunkPool(n int) []*decChunk {
	for len(fo.chunks) < n {
		fo.chunks = append(fo.chunks, newDecChunk())
	}
	return fo.chunks[:n]
}

// streamParallel is StreamProgram with lane replay spread over workers
// (2 ≤ workers ≤ lanes) goroutines. Records Process queued beforehand
// are replayed first, and every chunk is left empty on return, however
// the stream ends: the next Flush must not replay a stale chunk.
func (fo *FanOut) streamParallel(prog *workload.Program, seed, target uint64, workers int, opts StreamOptions) error {
	fo.Flush()
	pool := fo.chunkPool(poolChunks)
	free := make(chan *decChunk, poolChunks)
	for _, ch := range pool {
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

	// drain closes the queues, waits for the workers and empties every
	// chunk: chunks back on the free list still hold their records, and
	// an aborted stream leaves the producer's chunk unpublished. It also
	// runs if the producer panics (in a progress callback, say), so no
	// worker outlives the call or touches the lanes afterwards.
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
		for _, ch := range pool {
			ch.reset()
		}
	}
	defer drain()

	// A chunk is complete once the producer publishes it, and it stays
	// the producer's until then: the tap reads it here.
	publish := func(ch *decChunk) {
		if fo.tap != nil {
			fo.tap.add(ch)
		}
		ch.refs.Store(int32(workers))
		for _, q := range queues {
			q <- ch
		}
	}

	every := opts.every()
	ch := <-free
	ch.reset()
	var n uint64
	_, err := workload.Emit(prog, seed, target, func(r trace.Record) error {
		fo.front.decide(r, ch)
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
	return err
}
