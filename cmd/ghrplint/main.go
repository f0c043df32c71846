// Command ghrplint runs ghrpsim's five analyzers over the given
// package patterns (default ./...): detwallclock, detrand and maprange
// guard replay determinism, hotalloc the zero-allocation hot path, and
// identtaint result identity.
//
// Exit code contract (relied on by make ci and the baseline gate):
//
//	0  the tree is clean (or every finding is covered by -baseline)
//	1  at least one diagnostic fired (or a baseline entry went stale)
//	2  driver error: packages failed to load or type-check, unknown
//	   analyzer in -analyzers, unreadable baseline file
//
// Diagnostics print as file:line:col: [analyzer] message, or as a JSON
// array with -json. A finding can be suppressed at its line (or the
// line above) with //ghrplint:ignore <analyzer> <reason> — the reason
// is mandatory, and a directive that suppresses nothing is itself
// reported as stale. See internal/lint and the "Static analysis"
// section of DESIGN.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"ghrpsim/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ghrplint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		jsonOut       = fs.Bool("json", false, "emit diagnostics as a JSON array")
		list          = fs.Bool("list", false, "list the available analyzers and exit")
		analyzerNames = fs.String("analyzers", "", "comma-separated analyzer subset to run (default: all)")
		baselinePath  = fs.String("baseline", "", "fail only on findings absent from this baseline file")
		writeBaseline = fs.String("write-baseline", "", "write the current findings to this baseline file and exit 0")
		dir           = fs.String("dir", ".", "directory to resolve package patterns from")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: ghrplint [flags] [packages]\n\nFlags:\n")
		fs.PrintDefaults()
		fmt.Fprintf(stderr, "\nAnalyzers:\n")
		for _, a := range lint.All() {
			fmt.Fprintf(stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range lint.All() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers := lint.All()
	if *analyzerNames != "" {
		var err error
		analyzers, err = lint.Select(*analyzerNames)
		if err != nil {
			fmt.Fprintln(stderr, "ghrplint:", err)
			return 2
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(*dir, patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "ghrplint:", err)
		return 2
	}
	diags := lint.Run(pkgs, analyzers)

	root, err := os.Getwd()
	if err != nil {
		root = ""
	}

	if *writeBaseline != "" {
		f, err := os.Create(*writeBaseline)
		if err != nil {
			fmt.Fprintln(stderr, "ghrplint:", err)
			return 2
		}
		werr := lint.WriteBaseline(f, root, diags)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintln(stderr, "ghrplint:", werr)
			return 2
		}
		fmt.Fprintf(stderr, "ghrplint: wrote %d finding(s) to %s\n", len(diags), *writeBaseline)
		return 0
	}

	var stale []string
	if *baselinePath != "" {
		baseline, err := lint.ReadBaseline(*baselinePath)
		if err != nil {
			fmt.Fprintln(stderr, "ghrplint:", err)
			return 2
		}
		diags, stale = lint.ApplyBaseline(root, diags, baseline)
	}

	if *jsonOut {
		if err := lint.WriteJSON(stdout, root, diags); err != nil {
			fmt.Fprintln(stderr, "ghrplint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	for _, k := range stale {
		fmt.Fprintf(stderr, "ghrplint: stale baseline entry (fixed or reworded — remove it): %s\n", k)
	}
	if len(diags) > 0 || len(stale) > 0 {
		fmt.Fprintf(stderr, "ghrplint: %d new diagnostic(s), %d stale baseline entr(ies)\n", len(diags), len(stale))
		return 1
	}
	return 0
}
