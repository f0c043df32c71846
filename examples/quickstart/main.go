// Quickstart: simulate one workload under LRU and GHRP and compare
// I-cache and BTB misses per 1000 instructions — the paper's figure of
// merit.
package main

import (
	"fmt"
	"log"

	"ghrpsim"
)

func main() {
	// Pick a pressured server workload from the built-in 662-workload
	// suite (a synthetic stand-in for the CBP-5 industrial traces).
	spec, err := ghrpsim.FindWorkload("LS-104")
	if err != nil {
		log.Fatal(err)
	}
	prog, err := spec.Generate()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload %s (%s): %d functions, %d KB of code\n",
		spec.Name, spec.Category, len(prog.Funcs), prog.CodeBytes()/1024)

	// The paper's primary configuration: 64KB 8-way I-cache with 64B
	// blocks, 4096-entry 4-way BTB, warm-up on the first half.
	cfg := ghrpsim.DefaultConfig()

	// One pass replays the branch trace under both policies in lockstep,
	// exactly as the experiment harness does; WarmupFromStream derives
	// the warm-up window from that same pass's instruction count.
	target := spec.DefaultInstructions
	kinds := []ghrpsim.PolicyKind{ghrpsim.PolicyLRU, ghrpsim.PolicyGHRP}
	results, err := ghrpsim.SimulateFanOut(cfg, kinds, prog, 1, target, ghrpsim.WarmupFromStream, ghrpsim.StreamOptions{})
	if err != nil {
		log.Fatal(err)
	}
	for _, res := range results {
		fmt.Printf("%-6s I-cache %.3f MPKI (%d misses)   BTB %.3f MPKI (%d misses)\n",
			res.Policy, res.ICacheMPKI(), res.ICache.Misses, res.BTBMPKI(), res.BTB.Misses)
	}
}
