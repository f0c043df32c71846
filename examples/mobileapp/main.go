// Mobileapp studies a phased mobile-style workload — the paper's intro
// motivation: a small-footprint app moving through UI phases with
// occasional cold paths — across all five replacement policies and
// several I-cache sizes, showing where the replacement policy starts to
// matter as the footprint outgrows the cache.
package main

import (
	"fmt"
	"log"

	"ghrpsim"
)

func main() {
	// A custom mobile-style profile built directly against the public
	// Profile API: moderate code footprint, loopy hot paths, phase
	// changes, a couple of periodic scan passes (image decode, GC).
	prof := ghrpsim.Profile{
		Name:        "mobile-demo",
		Seed:        2024,
		Funcs:       320,
		BlocksMin:   6,
		BlocksMax:   14,
		InstrsMin:   4,
		InstrsMax:   12,
		LoopFrac:    0.7,
		TripMin:     4,
		TripMax:     40,
		CondFrac:    0.25,
		CallFrac:    0.12,
		ColdFrac:    0.15,
		ColdBias:    0.01,
		Phases:      4,
		PhaseFuncs:  90,
		ZipfTheta:   0.9,
		InitBlocks:  120,
		ScanFrac:    0.01,
		ScanLenMul:  80,
		ScanWeight:  0.3,
		BurstMin:    2,
		BurstMax:    8,
		UtilityFrac: 0.15,
	}
	prog, err := ghrpsim.GenerateProgram(prof)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mobile workload: %d KB code, %d static branches\n\n",
		prog.CodeBytes()/1024, prog.StaticBranches())

	// Count the stream once: every cache size below shares the 64B
	// block, so they all derive the same warm-up window from it.
	const seed, target = 7, 1_500_000
	base := ghrpsim.DefaultConfig()
	total, _, err := ghrpsim.CountProgram(base, prog, seed, target, ghrpsim.StreamOptions{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-14s", "I-cache MPKI")
	for _, k := range ghrpsim.PaperPolicies() {
		fmt.Printf(" %8s", k)
	}
	fmt.Println()
	for _, kb := range []int{8, 16, 32, 64} {
		cfg := base
		cfg.ICache = ghrpsim.ICacheConfig{SizeBytes: kb * 1024, BlockBytes: 64, Ways: 8}
		fmt.Printf("%3dKB 8-way   ", kb)
		results, err := ghrpsim.SimulateFanOut(cfg, ghrpsim.PaperPolicies(), prog, seed, target, cfg.WarmupFor(total), ghrpsim.StreamOptions{})
		if err != nil {
			log.Fatal(err)
		}
		for _, res := range results {
			fmt.Printf(" %8.3f", res.ICacheMPKI())
		}
		fmt.Println()
	}
	fmt.Println("\nSmaller caches amplify the policy differences; once the phase working")
	fmt.Println("set fits (64KB), every policy converges to compulsory misses.")
}
