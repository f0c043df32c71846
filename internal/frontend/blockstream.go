package frontend

import "ghrpsim/internal/trace"

// BlockStream reconstructs the exact I-cache block access sequence the
// simulator would issue for a record stream — including fetch-buffer
// coalescing — so offline analyses (Belady's OPT, reuse-distance
// profiles) see the same accesses as the online policies. It also
// returns the OPT skip index: the number of block accesses issued
// within the first warmupInstrs instructions, matching the simulator's
// warm-up rule (0 for no warm-up).
func BlockStream(recs []trace.Record, cfg Config, warmupInstrs uint64) (blocks []uint64, skip int, err error) {
	f, err := trace.NewFetcher(cfg.InstrBytes, uint64(cfg.ICache.BlockBytes))
	if err != nil {
		return nil, 0, err
	}
	blocks = make([]uint64, 0, len(recs)*2)
	var total uint64
	var lastBlock uint64
	haveLast := false
	for _, r := range recs {
		warm := total < warmupInstrs
		total += f.Next(r, func(block uint64, _ int) {
			if haveLast && block == lastBlock {
				return
			}
			lastBlock, haveLast = block, true
			blocks = append(blocks, block)
		})
		if warm {
			skip = len(blocks)
		}
	}
	return blocks, skip, nil
}
