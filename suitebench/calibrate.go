package main

import (
	"runtime"
	"sync"
	"time"
)

// The shared host this benchmark was built on changes speed by up to 3x
// over minutes as other tenants' load comes and goes, and no choice of
// repetitions inside a 25-second run averages that out. Each
// repetition is therefore bracketed by a fixed CPU kernel, and its
// timings are reported scaled to a host on which the kernel takes
// calibrationNominal: on a quiet host the scaled and raw times agree.
//
// The kernel's tables (3 MiB per processor) overflow the 2 MiB per-core
// L2, so like the simulator it leans on the last-level cache and memory
// that other tenants share. Over 42 minutes of interleaved kernel runs
// and suite passes, pass times grew as the kernel's time to the power
// 0.94-1.03. Over L2-resident tables the power was 1.3-1.45: that
// kernel under-corrects, and during a 1.7x slowdown it left the
// fixed-table passes 12% slow.
//
// The host's speed also swings by a third within a second. A kernel
// of 80 ms samples those swings, and dividing by it added that noise to
// every repetition; three times as long, it cut the spread of run
// medians from 7.5-13% to 6-9% on a busy host.

// calibrationNominal is the kernel's median time on the 2-vCPU host the
// benchmark was sized on.
const calibrationNominal = 240 * time.Millisecond

// calibrationAccesses sizes one goroutine's share of the kernel, and
// calibrationSets its cache model.
const (
	calibrationAccesses = 4_800_000
	calibrationSets     = 1 << 15
)

// calibrate runs the kernel on every processor at once and returns its
// wall time.
func calibrate() time.Duration {
	n := runtime.GOMAXPROCS(0)
	misses := make([]uint64, n)
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			misses[g] = lruKernel(uint64(g+1), calibrationAccesses, calibrationSets)
		}(g)
	}
	wg.Wait()
	d := time.Since(start)
	calibrationSink = misses[0]
	return d
}

// calibrationSink keeps the kernel's result live.
var calibrationSink uint64

// lruKernel replays a synthetic address stream with locality through an
// 8-way LRU cache model of the given sets: the same mix of table lookups
// and data-dependent branches the simulator's lanes execute, in code no
// later change to the simulator touches. Each burst of accesses falls in
// a window four times the model's size.
func lruKernel(seed uint64, n, sets int) uint64 {
	const ways = 8
	tags := make([]uint64, sets*ways)
	age := make([]uint32, sets*ways)
	window := uint64(4*sets - 1)
	x := seed | 1
	var misses, base uint64
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if x&63 == 0 {
			base = x & 0xFFFFFFF
		}
		addr := base + (x>>40)&window
		set := int(addr % uint64(sets))
		tag := addr / uint64(sets)
		row := tags[set*ways : set*ways+ways]
		ag := age[set*ways : set*ways+ways]
		hit := -1
		for w := range row {
			if row[w] == tag {
				hit = w
				break
			}
		}
		if hit < 0 {
			misses++
			victim := 0
			for w := range ag {
				if ag[w] > ag[victim] {
					victim = w
				}
			}
			row[victim] = tag
			hit = victim
		}
		for w := range ag {
			ag[w]++
		}
		ag[hit] = 0
	}
	return misses
}
