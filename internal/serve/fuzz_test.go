package serve

import (
	"bytes"
	"math/bits"
	"testing"

	"ghrpsim/internal/frontend"
)

// FuzzRunRequest feeds arbitrary bytes to the POST /runs path: the
// body decoder and normalize, with a cell limit armed. The contract
// under attack: no panic, every rejection is a bad request (HTTP 400,
// never 500), and an accepted job stays within the cell limit.
func FuzzRunRequest(f *testing.F) {
	for _, seed := range []string{
		tinyRun,
		`{"workloads": ["SS-001", "SM-002"], "policies": ["GHRP"], "config": {"icache_kb": 32, "ways": 4}}`,
		`{"suite": {"n": 100000, "lo": 50000, "hi": 50002, "mix": {"short_mobile": 1}}, "policies": ["LRU"]}`,
		`{"suite": {"n": 4, "footprint_min": 0.5, "footprint_max": 2, "footprint_steps": 3}, "exec_seed": 7, "keep_going": true}`,
		`{"suite_n": 3, "scale": 1e308, "parallelism": -4, "progress_every": 1}`,
		`{"suite_n": -1}`,
		`{"suite_m": 3}`,
		`{"suite": {"n": 2}, "workloads": ["SS-001"]}`,
		`[]`,
		``,
	} {
		f.Add([]byte(seed))
	}
	d := Defaults{Config: frontend.DefaultConfig(), JobParallelism: 1, MaxCells: 64}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeRunRequest(bytes.NewReader(body))
		if err == nil {
			var j job
			j, err = normalize(req, d)
			if err == nil {
				hi, cells := bits.Mul64(uint64(j.opts.Source.Len()), uint64(len(j.opts.Policies)))
				if hi != 0 || cells > uint64(d.MaxCells) {
					t.Fatalf("accepted %d workloads x %d policies over the %d-cell limit",
						j.opts.Source.Len(), len(j.opts.Policies), d.MaxCells)
				}
				return
			}
		}
		if !IsBadRequest(err) {
			t.Fatalf("rejection is not a bad request: %v", err)
		}
	})
}
