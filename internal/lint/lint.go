// Package lint is ghrpsim's in-tree static analysis suite. The
// simulator's headline guarantees — bit-identical replay across
// scheduler shapes, deterministic seeding, a zero-allocation hot path,
// and no nondeterminism reaching content-addressed identities — are
// invariants the Go compiler cannot see; each analyzer here turns one
// of them into a machine-checked rule that `make lint` (and so `make
// ci`) enforces on every non-test file in the module.
//
// The suite is built on the standard library alone: packages are
// enumerated with `go list -json -deps` and type-checked from source
// with go/parser + go/types, so it needs neither golang.org/x/tools nor
// a network-reachable module cache. The interprocedural analyzers
// (hotalloc, identtaint) walk a whole-module call graph built by the
// callgraph subpackage.
//
// A diagnostic can be suppressed at the offending line (or the line
// directly above it) with
//
//	//ghrplint:ignore <analyzer> <reason>
//
// The reason is mandatory — an ignore directive without one is itself a
// build-failing diagnostic, so every suppression carries its
// justification in the source. A directive that no longer suppresses
// anything (and skips no hot-path edge) is reported as stale, so dead
// ignores cannot accumulate. maprange additionally accepts
// //ghrplint:commutative <reason> as the loop-is-order-free annotation.
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"

	"ghrpsim/internal/lint/callgraph"
)

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the shared `file:line:col: [analyzer] message` format.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one named rule over the type-checked module.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass carries one analyzer invocation's context: every loaded package
// plus the module call graph. Analyzers iterate Pkgs themselves —
// interprocedural rules need the whole module at once.
type Pass struct {
	Pkgs  []*Package
	Graph *callgraph.Graph

	analyzer string
	fset     *token.FileSet
	out      *[]Diagnostic
	dirs     []*directive
	byUnit   map[*callgraph.Unit]*Package
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.out = append(*p.out, Diagnostic{
		Pos:      p.fset.Position(pos),
		Analyzer: p.analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// IgnoredAt reports whether a suppression directive for this analyzer
// covers pos (same line or the line above). Analyzers that prune work
// at suppressed positions — hotalloc skipping call-graph edges on
// ignored lines — route through here, which also marks the directive
// used so it is not reported as stale.
func (p *Pass) IgnoredAt(pos token.Pos) bool {
	position := p.fset.Position(pos)
	hit := false
	for _, dir := range p.dirs {
		if dir.analyzer != p.analyzer || dir.file != position.Filename {
			continue
		}
		if dir.line == position.Line || dir.line == position.Line-1 {
			dir.used = true
			hit = true
		}
	}
	return hit
}

// PackageOf maps a call-graph node back to its lint package.
func (p *Pass) PackageOf(n *callgraph.Node) *Package { return p.byUnit[n.Unit] }

// All returns the full analyzer suite in its documentation order.
func All() []*Analyzer {
	return []*Analyzer{DetWallClock, DetRand, MapRange, HotAlloc, IdentTaint}
}

// Select resolves a comma-separated analyzer-name list against All().
func Select(names string) ([]*Analyzer, error) {
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("lint: unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("lint: empty analyzer selection")
	}
	return out, nil
}

// Run builds the module call graph, applies the analyzers, resolves
// suppression directives, and returns the surviving diagnostics sorted
// by position. Malformed directives (missing reason, unknown analyzer
// name) and stale directives (suppressing nothing) are returned as
// diagnostics of the pseudo-analyzer "driver" and cannot themselves be
// suppressed.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	if len(pkgs) == 0 {
		return nil
	}
	fset := pkgs[0].Fset
	known := map[string]bool{}
	for _, a := range All() {
		known[a.Name] = true
	}
	selected := map[string]bool{}
	for _, a := range analyzers {
		selected[a.Name] = true
	}

	units := make([]*callgraph.Unit, len(pkgs))
	byUnit := map[*callgraph.Unit]*Package{}
	for i, pkg := range pkgs {
		units[i] = &callgraph.Unit{
			Path:  pkg.ImportPath,
			Name:  pkg.Name,
			Fset:  pkg.Fset,
			Files: pkg.Files,
			Pkg:   pkg.Types,
			Info:  pkg.Info,
		}
		byUnit[units[i]] = pkg
	}
	graph := callgraph.Build(units)

	dirs, bad := collectDirectives(pkgs, known)

	var raw []Diagnostic
	for _, a := range analyzers {
		a.Run(&Pass{
			Pkgs:     pkgs,
			Graph:    graph,
			analyzer: a.Name,
			fset:     fset,
			out:      &raw,
			dirs:     dirs,
			byUnit:   byUnit,
		})
	}

	var diags []Diagnostic
	for _, d := range raw {
		if !suppressed(d, dirs) {
			diags = append(diags, d)
		}
	}
	diags = append(diags, bad...)
	for _, dir := range dirs {
		if dir.used || !selected[dir.analyzer] {
			continue
		}
		diags = append(diags, Diagnostic{
			Pos:      dir.pos,
			Analyzer: "driver",
			Message: fmt.Sprintf("stale %s directive: no %s diagnostic fires here anymore; delete it",
				dir.kind, dir.analyzer),
		})
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// directive is one parsed, well-formed suppression comment.
type directive struct {
	file     string
	line     int
	analyzer string
	kind     string // "//ghrplint:ignore" or "//ghrplint:commutative"
	pos      token.Position
	used     bool
}

const (
	ignorePrefix      = "//ghrplint:ignore"
	commutativePrefix = "//ghrplint:commutative"
)

// collectDirectives scans every package's comments for ghrplint
// directives, returning the valid ones plus driver diagnostics for
// malformed ones.
func collectDirectives(pkgs []*Package, known map[string]bool) ([]*directive, []Diagnostic) {
	var dirs []*directive
	var bad []Diagnostic
	for _, pkg := range pkgs {
		report := func(pos token.Pos, format string, args ...any) {
			bad = append(bad, Diagnostic{
				Pos:      pkg.Fset.Position(pos),
				Analyzer: "driver",
				Message:  fmt.Sprintf(format, args...),
			})
		}
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := c.Text
					var analyzer, rest, kind string
					switch {
					case strings.HasPrefix(text, commutativePrefix):
						// Loop-level annotation: shorthand for ignoring
						// maprange with the commutativity argument as reason.
						analyzer = MapRange.Name
						rest = strings.TrimSpace(text[len(commutativePrefix):])
						kind = commutativePrefix
					case strings.HasPrefix(text, ignorePrefix):
						fields := strings.Fields(text[len(ignorePrefix):])
						if len(fields) == 0 {
							report(c.Pos(), "%s needs an analyzer and a reason: %s <analyzer> <why>", ignorePrefix, ignorePrefix)
							continue
						}
						analyzer = fields[0]
						rest = strings.Join(fields[1:], " ")
						kind = ignorePrefix
						if !known[analyzer] {
							report(c.Pos(), "%s names unknown analyzer %q", ignorePrefix, analyzer)
							continue
						}
					default:
						continue
					}
					if rest == "" {
						report(c.Pos(), "suppression without a reason; write %s %s <why this is safe>", strings.Fields(text)[0], analyzer)
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					dirs = append(dirs, &directive{
						file: pos.Filename, line: pos.Line,
						analyzer: analyzer, kind: kind, pos: pos,
					})
				}
			}
		}
	}
	return dirs, bad
}

// suppressed reports whether a directive on the diagnostic's line or
// the line directly above it names the diagnostic's analyzer, marking
// any matching directive used.
func suppressed(d Diagnostic, dirs []*directive) bool {
	hit := false
	for _, dir := range dirs {
		if dir.analyzer != d.Analyzer || dir.file != d.Pos.Filename {
			continue
		}
		if dir.line == d.Pos.Line || dir.line == d.Pos.Line-1 {
			dir.used = true
			hit = true
		}
	}
	return hit
}

// deterministicPackages names the packages whose simulation results
// must be a pure function of their inputs: any dependence on wall-clock
// time or iteration order there breaks bit-identical replay. The set is
// keyed by package name, which is what fixture packages under testdata
// also use to opt in. sim, obs, prof and the commands are deliberately
// absent — timing, progress reporting and profiling are their job.
var deterministicPackages = map[string]bool{
	"frontend":    true,
	"cache":       true,
	"btb":         true,
	"core":        true,
	"perceptron":  true,
	"policies":    true,
	"indirect":    true,
	"workload":    true,
	"analysis":    true,
	"opt":         true,
	"stats":       true,
	"trace":       true,
	"resultcache": true,
	// serve's job outputs (run results) must be a pure function of the
	// normalized submission for content-addressed dedup to be sound; its
	// two legitimate wall-clock uses (run timestamps, SSE keep-alive
	// pacing) carry written ignores.
	"serve": true,
	// dist's merged documents must be bit-identical to a single-process
	// run whatever failed along the way, so its result path is held to
	// the same standard; the transport layer's legitimate wall-clock uses
	// (backoff sleeps, probe/hedge pacing, liveness stamps) are funneled
	// through three helpers in dist.go that carry written ignores.
	"dist": true,
}

// deterministic reports whether the package is part of the
// deterministic core.
func deterministic(p *Package) bool { return deterministicPackages[p.Name] }
