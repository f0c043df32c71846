// Command suitebench is the repository's benchmark: it runs one named
// workload through the entry points users call — sim.Run, and dist.New
// over serve daemons, uncached and, in traced runs, over fresh result
// caches — checks the results, and prints every metric by name with its
// unit. The last line of standard output is a one-line JSON result
// carrying the metrics BENCHMARK.json lists: its end-to-end metrics from
// untraced repetitions, or with -trace 1 its per-layer metrics from
// traced repetitions plus serial probes of each layer. See README.md.
//
// Usage (from the repository root):
//
//	bash suitebench/run.sh -workload NAME [-seed N] [-seconds S] [-trace 0|1]
//	     [-spans FILE] [-out FILE] [-cpuprofile FILE]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"time"
)

// runLimit keeps a run inside the three minutes one invocation may take.
const runLimit = 170 * time.Second

type options struct {
	workload   string
	seed       uint64
	seconds    int
	trace      int
	spans      string
	out        string
	cpuprofile string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: paper-suite, front-lru, suite-gen or dist-loopback")
	flag.Uint64Var(&o.seed, "seed", 1, "execution seed of every simulation (0 selects the default, 1)")
	flag.IntVar(&o.seconds, "seconds", 20, "least time the untraced repetitions take (at least three run)")
	flag.IntVar(&o.trace, "trace", 0, "1 reports per-layer metrics from a traced repetition and layer probes")
	flag.StringVar(&o.spans, "spans", "", "with -trace 1, also write the spans as JSON lines to this file")
	flag.StringVar(&o.out, "out", "", "also write the full report as JSON to this file")
	flag.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile of the run to this file")
	flag.Parse()
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "suitebench:", err)
		os.Exit(1)
	}
}

// run executes one benchmark run. It fails when the run cannot
// complete, and after printing the report when an operation or check
// failed.
func run(o options, stdout io.Writer) (err error) {
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace %d must be 0 or 1", o.trace)
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds %d must be positive", o.seconds)
	}
	l, err := readLedger(ledgerPath)
	if err != nil {
		return err
	}
	def, err := lookup(o.workload)
	if err != nil {
		return err
	}
	if o.cpuprofile != "" {
		f, err := os.Create(o.cpuprofile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
	}
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	rep, listed, err := execute(ctx, newBench(def, o.seed), o, l)
	if err != nil {
		return err
	}
	line, err := rep.resultLine(listed)
	if err != nil {
		return err
	}
	if o.out != "" {
		blob, err := json.MarshalIndent(rep, "", "\t")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.out, append(blob, '\n'), 0o644); err != nil {
			return err
		}
	}
	rep.print(stdout)
	fmt.Fprintf(stdout, "%s\n", line)
	if !rep.correct() {
		return fmt.Errorf("%s: %d of %d operations and checks failed", def.name, rep.Failed, rep.Attempted)
	}
	return nil
}

// execute runs the benchmark in the mode o selects and returns the
// report with the metrics its result line carries.
func execute(ctx context.Context, b *bench, o options, l ledger) (*report, []ledgerMetric, error) {
	if o.trace == 0 {
		rep, err := b.measure(ctx, time.Duration(o.seconds)*time.Second)
		return rep, l.EndToEnd, err
	}
	rep, spans, err := b.traced(ctx)
	if err != nil {
		return nil, nil, err
	}
	if o.spans != "" {
		if err := writeSpans(o.spans, spans); err != nil {
			return nil, nil, err
		}
	}
	return rep, l.PerLayer, nil
}
