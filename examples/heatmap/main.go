// Heatmap renders the paper's Fig. 1/Fig. 5-style cache-efficiency heat
// maps: each character cell is a cache frame, lighter characters mean
// the frame spent more of its time holding a live block. A good
// replacement policy keeps more of the cache live.
package main

import (
	"fmt"
	"log"

	"ghrpsim"
	"ghrpsim/internal/stats"
)

func main() {
	// A flush-heavy server workload shows the contrast best.
	spec, err := ghrpsim.FindWorkload("SS-125")
	if err != nil {
		log.Fatal(err)
	}
	prog, err := spec.Generate()
	if err != nil {
		log.Fatal(err)
	}

	// The paper's Fig. 1 uses a 16KB 8-way I-cache so the map is legible.
	cfg := ghrpsim.DefaultConfig()
	cfg.ICache = ghrpsim.ICacheConfig{SizeBytes: 16 * 1024, BlockBytes: 64, Ways: 8}

	// One pass replays the workload under every policy, with no warm-up
	// window and the efficiency matrices turned on.
	kinds := ghrpsim.PaperPolicies()
	fo, err := ghrpsim.NewFanOut(cfg, kinds, 0)
	if err != nil {
		log.Fatal(err)
	}
	fo.TrackEfficiency()
	if _, err := fo.StreamProgram(prog, 1, spec.DefaultInstructions, ghrpsim.StreamOptions{}); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("I-cache efficiency heat maps for %s (16KB 8-way; lighter = longer live time)\n\n", spec.Name)
	for i, kind := range kinds {
		eff := fo.ICache(i).Efficiency()
		fmt.Printf("--- %s (mean efficiency %.3f)\n", kind, stats.MeanEfficiency(eff))
		fmt.Println(stats.Heatmap(eff, 16, 2))
	}
}
