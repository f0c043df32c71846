package serve

import (
	"bytes"
	"math/bits"
	"testing"
)

// FuzzRunRequest feeds arbitrary bytes to the POST /runs path: the
// body decoder and Normalize, with a cell limit armed. The contract
// under attack: no panic, every rejection is a bad request (HTTP 400,
// never 500), and an accepted job stays within the cell limit, has
// instruction budgets a uint64 holds, and is a fixed point: its echoed
// request normalizes to the same key and workloads, and so does the
// request of a Window of it, to the key and workloads Window gave it.
func FuzzRunRequest(f *testing.F) {
	for _, seed := range []string{
		tinyRun,
		`{"workloads": ["SS-001", "SM-002"], "policies": ["GHRP"], "config": {"icache_kb": 32, "ways": 4}}`,
		`{"suite": {"n": 100000, "lo": 50000, "hi": 50002, "mix": {"short_mobile": 1}}, "policies": ["LRU"]}`,
		`{"suite": {"n": 4, "footprint_min": 0.5, "footprint_max": 2, "footprint_steps": 3}, "exec_seed": 7, "keep_going": true}`,
		`{"suite_n": 3, "scale": 1e308, "parallelism": -4, "progress_every": 1}`,
		`{"workloads": ["LS-001"], "scale": 9.2e12}`,
		`{"suite_n": -1}`,
		`{"suite_m": 3}`,
		`{"suite": {"n": 2}, "workloads": ["SS-001"]}`,
		`[]`,
		``,
	} {
		f.Add([]byte(seed))
	}
	d := Defaults{JobParallelism: 1, MaxCells: 64}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeRunRequest(bytes.NewReader(body))
		if err == nil {
			var j Job
			j, err = Normalize(req, d)
			if err == nil {
				src := j.Options.Source
				hi, cells := bits.Mul64(uint64(src.Len()), uint64(len(j.Options.Policies)))
				if hi != 0 || cells > uint64(d.MaxCells) {
					t.Fatalf("accepted %d workloads x %d policies over the %d-cell limit",
						src.Len(), len(j.Options.Policies), d.MaxCells)
				}
				for i := 0; i < src.Len(); i++ {
					if b := float64(src.At(i).DefaultInstructions) * j.Options.Scale; !(b < 0x1p64) {
						t.Fatalf("accepted scale %v: workload %d's budget %v overflows uint64", j.Options.Scale, i, b)
					}
				}
				requireKey(t, j.Request, d, j)
				w, err := j.Window(src.Len()/2, src.Len())
				if err != nil {
					t.Fatal(err)
				}
				requireKey(t, w.Request, d, w)
				return
			}
		}
		if !IsBadRequest(err) {
			t.Fatalf("rejection is not a bad request: %v", err)
		}
	})
}

// requireKey normalizes req and requires want's key and workloads.
func requireKey(t *testing.T, req RunRequest, d Defaults, want Job) {
	t.Helper()
	got, err := Normalize(req, d)
	if err != nil {
		t.Fatalf("normalized request %+v rejected: %v", req, err)
	}
	if got.Key != want.Key {
		t.Fatalf("normalized request %+v keyed %s, want %s", req, got.Key, want.Key)
	}
	gs, ws := got.Options.Source, want.Options.Source
	if gs.Len() != ws.Len() {
		t.Fatalf("normalized request %+v runs %d workloads, want %d", req, gs.Len(), ws.Len())
	}
	for i := 0; i < gs.Len(); i++ {
		if g, w := gs.At(i).Name, ws.At(i).Name; g != w {
			t.Fatalf("normalized request %+v runs %s at %d, want %s", req, g, i, w)
		}
	}
}
