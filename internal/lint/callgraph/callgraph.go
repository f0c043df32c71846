// Package callgraph builds a whole-module static call graph from the
// go/types information the lint loader already produces — no
// golang.org/x/tools, no SSA. It is the substrate the interprocedural
// analyzers (hotalloc's transitive hot-path propagation, the identity
// taint tracker) walk.
//
// Resolution strategy, from precise to conservative:
//
//   - Plain function calls and concrete method calls resolve to their
//     one callee.
//   - A method call on a type-parameter operand (the cache.AccessWith /
//     btb.AccessWith shape) is resolved once per concrete instantiation
//     of the enclosing generic function. Nested generic calls
//     (AccessWith instantiating installWith with its own type parameter)
//     are closed over by a substitution fixpoint, so an instantiation
//     discovered anywhere in the module flows through the whole generic
//     call chain.
//   - A call through an interface fans out to every module named type
//     that implements the interface (by value or pointer receiver).
//     External implementations are invisible — the analyzers that need
//     soundness against them must say so in their docs.
//   - A call through a function value fans out to every address-taken
//     module function with an identical signature.
//
// Known approximation: function literals (closures) are not graph
// nodes; a call through a closure value resolves to nothing. The
// analyzers compensate where it matters — hotalloc flags the closure
// allocation itself at its creation site inside hot code.
package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Unit is one type-checked package handed to Build. It mirrors the lint
// loader's Package without importing it, so the lint package can depend
// on callgraph and not the other way around.
type Unit struct {
	Path  string
	Name  string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Edge is one resolved call site: Caller calls Callee at Pos.
type Edge struct {
	Caller *Node
	Callee *Node
	Pos    token.Pos
}

// Node is one module function with a body.
type Node struct {
	Func *types.Func
	Decl *ast.FuncDecl
	Unit *Unit
	Out  []*Edge
	// AddressTaken marks functions referenced outside call position —
	// the candidate targets of function-value fan-out.
	AddressTaken bool
}

// Name returns the function's bare name (no receiver qualification),
// the form diagnostics use in hot-path chains.
func (n *Node) Name() string { return n.Func.Name() }

// Graph is the module call graph.
type Graph struct {
	nodes map[*types.Func]*Node
	order []*Node
}

// Node returns the graph node for fn (its generic origin), or nil for
// functions without a module body.
func (g *Graph) Node(fn *types.Func) *Node {
	if fn == nil {
		return nil
	}
	return g.nodes[fn.Origin()]
}

// Nodes returns every node in deterministic (source) order.
func (g *Graph) Nodes() []*Node { return g.order }

// Build constructs the call graph over the given units.
func Build(units []*Unit) *Graph {
	g := &Graph{nodes: map[*types.Func]*Node{}}
	for _, u := range units {
		for _, f := range u.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := u.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &Node{Func: obj, Decl: fd, Unit: u}
				g.nodes[obj] = n
				g.order = append(g.order, n)
			}
		}
	}
	b := &builder{
		g:     g,
		seen:  map[edgeKey]bool{},
		tups:  map[*types.Func][]tuple{},
		tkeys: map[*types.Func]map[string]bool{},
	}
	for _, n := range g.order {
		b.collect(n)
	}
	b.instantiate()
	b.resolveTypeParams()
	b.resolveInterfaces(units)
	b.resolveFuncValues()
	return g
}

type edgeKey struct {
	from, to *types.Func
	pos      token.Pos
}

type tuple []types.Type

type pendingInst struct {
	caller, callee *types.Func
	args           tuple
}

type tpSite struct {
	caller *Node
	tp     *types.TypeParam
	name   string
	pos    token.Pos
}

type ifaceSite struct {
	caller *Node
	iface  *types.Interface
	name   string
	pos    token.Pos
}

type fvSite struct {
	caller *Node
	sig    *types.Signature
	pos    token.Pos
}

type builder struct {
	g       *Graph
	seen    map[edgeKey]bool
	tups    map[*types.Func][]tuple // concrete instantiations per generic function
	tkeys   map[*types.Func]map[string]bool
	pending []pendingInst
	tpSites []tpSite
	ifSites []ifaceSite
	fvSites []fvSite
}

func (b *builder) edge(from, to *Node, pos token.Pos) {
	k := edgeKey{from.Func, to.Func, pos}
	if b.seen[k] {
		return
	}
	b.seen[k] = true
	from.Out = append(from.Out, &Edge{Caller: from, Callee: to, Pos: pos})
}

// collect walks one function body, recording static edges, dynamic
// call sites for later resolution, generic instantiations, and
// address-taken function references.
func (b *builder) collect(n *Node) {
	info := n.Unit.Info
	// Idents that are the operator of a call: references to functions
	// anywhere else are address-taken.
	callFuns := map[*ast.Ident]bool{}
	ast.Inspect(n.Decl.Body, func(nd ast.Node) bool {
		switch x := nd.(type) {
		case *ast.CallExpr:
			if id := calleeIdent(x.Fun); id != nil {
				callFuns[id] = true
			}
			b.call(n, x)
		}
		return true
	})
	ast.Inspect(n.Decl.Body, func(nd ast.Node) bool {
		id, ok := nd.(*ast.Ident)
		if !ok {
			return true
		}
		fn, ok := info.Uses[id].(*types.Func)
		if !ok {
			return true
		}
		if inst, ok := info.Instances[id]; ok && inst.TypeArgs != nil && inst.TypeArgs.Len() > 0 {
			b.recordInst(n.Func, fn.Origin(), inst.TypeArgs)
		}
		if callFuns[id] {
			return true
		}
		if tgt := b.g.Node(fn); tgt != nil {
			tgt.AddressTaken = true
		}
		return true
	})
}

// calleeIdent returns the identifier that names a call's operator, or
// nil for calls through arbitrary expressions.
func calleeIdent(fun ast.Expr) *ast.Ident {
	switch f := ast.Unparen(fun).(type) {
	case *ast.Ident:
		return f
	case *ast.SelectorExpr:
		return f.Sel
	case *ast.IndexExpr:
		return calleeIdent(f.X)
	case *ast.IndexListExpr:
		return calleeIdent(f.X)
	}
	return nil
}

func (b *builder) call(n *Node, call *ast.CallExpr) {
	info := n.Unit.Info
	if id := calleeIdent(call.Fun); id != nil {
		switch obj := info.Uses[id].(type) {
		case *types.Builtin, *types.TypeName:
			return // builtin or conversion
		case *types.Func:
			b.staticCall(n, call, obj)
			return
		case nil:
			return
		}
		// *types.Var: a call through a function-valued variable or
		// field — falls through to the dynamic case.
	}
	tv, ok := info.Types[call.Fun]
	if !ok || tv.IsType() || tv.IsBuiltin() {
		return
	}
	if sig, ok := tv.Type.Underlying().(*types.Signature); ok {
		b.fvSites = append(b.fvSites, fvSite{caller: n, sig: sig, pos: call.Pos()})
	}
}

func (b *builder) staticCall(n *Node, call *ast.CallExpr, fn *types.Func) {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		rt := sig.Recv().Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		// go/types gives a method selected on a type parameter its
		// constraint interface as receiver, so the type parameter only
		// shows in the operand's type.
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if tp, ok := n.Unit.Info.TypeOf(sel.X).(*types.TypeParam); ok {
				b.tpSites = append(b.tpSites, tpSite{caller: n, tp: tp, name: fn.Name(), pos: call.Pos()})
				return
			}
		}
		if types.IsInterface(rt) {
			if iface, ok := rt.Underlying().(*types.Interface); ok {
				b.ifSites = append(b.ifSites, ifaceSite{caller: n, iface: iface, name: fn.Name(), pos: call.Pos()})
				return
			}
		}
	}
	if callee := b.g.Node(fn); callee != nil {
		b.edge(n, callee, call.Pos())
	}
}

// recordInst files one generic-function instantiation: concrete tuples
// go straight into the per-function set, tuples still mentioning the
// caller's type parameters wait for the substitution fixpoint.
func (b *builder) recordInst(caller, callee *types.Func, targs *types.TypeList) {
	if b.g.Node(callee) == nil {
		return // external generic; nothing to resolve into
	}
	tup := make(tuple, targs.Len())
	concrete := true
	for i := 0; i < targs.Len(); i++ {
		tup[i] = targs.At(i)
		if containsTypeParam(tup[i]) {
			concrete = false
		}
	}
	if concrete {
		b.addTuple(callee, tup)
		return
	}
	b.pending = append(b.pending, pendingInst{caller: caller, callee: callee, args: tup})
}

func (b *builder) addTuple(fn *types.Func, tup tuple) bool {
	parts := make([]string, len(tup))
	for i, t := range tup {
		parts[i] = types.TypeString(t, nil)
	}
	key := strings.Join(parts, ",")
	if b.tkeys[fn] == nil {
		b.tkeys[fn] = map[string]bool{}
	}
	if b.tkeys[fn][key] {
		return false
	}
	b.tkeys[fn][key] = true
	b.tups[fn] = append(b.tups[fn], tup)
	return true
}

func containsTypeParam(t types.Type) bool {
	switch t := t.(type) {
	case *types.TypeParam:
		return true
	case *types.Pointer:
		return containsTypeParam(t.Elem())
	case *types.Slice:
		return containsTypeParam(t.Elem())
	case *types.Array:
		return containsTypeParam(t.Elem())
	case *types.Chan:
		return containsTypeParam(t.Elem())
	case *types.Map:
		return containsTypeParam(t.Key()) || containsTypeParam(t.Elem())
	case *types.Named:
		if ta := t.TypeArgs(); ta != nil {
			for i := 0; i < ta.Len(); i++ {
				if containsTypeParam(ta.At(i)) {
					return true
				}
			}
		}
	}
	return false
}

// instantiate closes the instantiation sets under substitution: a
// pending tuple (installWith[P] inside AccessWith[P]) is made concrete
// once for every concrete tuple of its enclosing generic function.
func (b *builder) instantiate() {
	for changed := true; changed; {
		changed = false
		for _, p := range b.pending {
			callerTups := b.tups[p.caller]
			for i := 0; i < len(callerTups); i++ {
				sub, ok := substTuple(p.caller, p.args, callerTups[i])
				if ok && b.addTuple(p.callee, sub) {
					changed = true
				}
			}
		}
	}
}

// substTuple replaces the caller's type parameters in args with the
// corresponding entries of one concrete caller tuple.
func substTuple(caller *types.Func, args, callerTup tuple) (tuple, bool) {
	tps := typeParamsOf(caller)
	if tps == nil {
		return nil, false
	}
	out := make(tuple, len(args))
	for i, t := range args {
		if tp, ok := t.(*types.TypeParam); ok {
			idx := indexOfTypeParam(tps, tp)
			if idx < 0 || idx >= len(callerTup) {
				return nil, false
			}
			out[i] = callerTup[idx]
			continue
		}
		if containsTypeParam(t) {
			return nil, false // nested occurrence (e.g. []P); give up on this tuple
		}
		out[i] = t
	}
	return out, true
}

func typeParamsOf(fn *types.Func) *types.TypeParamList {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	if tps := sig.TypeParams(); tps != nil && tps.Len() > 0 {
		return tps
	}
	return sig.RecvTypeParams()
}

func indexOfTypeParam(tps *types.TypeParamList, tp *types.TypeParam) int {
	for i := 0; i < tps.Len(); i++ {
		if tps.At(i) == tp {
			return i
		}
	}
	return -1
}

// resolveTypeParams turns each method-call-on-type-parameter site into
// edges: one per concrete instantiation of the enclosing generic
// function. An interface type argument degrades the site to interface
// fan-out.
func (b *builder) resolveTypeParams() {
	for _, s := range b.tpSites {
		tps := typeParamsOf(s.caller.Func)
		if tps == nil {
			continue
		}
		idx := indexOfTypeParam(tps, s.tp)
		if idx < 0 {
			continue
		}
		for _, tup := range b.tups[s.caller.Func] {
			if idx >= len(tup) {
				continue
			}
			t := tup[idx]
			if iface, ok := t.Underlying().(*types.Interface); ok {
				b.ifSites = append(b.ifSites, ifaceSite{caller: s.caller, iface: iface, name: s.name, pos: s.pos})
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(t, true, s.caller.Unit.Pkg, s.name)
			m, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			if callee := b.g.Node(m); callee != nil {
				b.edge(s.caller, callee, s.pos)
			}
		}
	}
}

// resolveInterfaces fans each interface call site out to every module
// named type implementing the interface.
func (b *builder) resolveInterfaces(units []*Unit) {
	var impls []types.Type
	for _, u := range units {
		scope := u.Pkg.Scope()
		for _, name := range scope.Names() { // Names() is sorted
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			impls = append(impls, named)
		}
	}
	for _, s := range b.ifSites {
		for _, t := range impls {
			var recv types.Type
			switch {
			case types.Implements(t, s.iface):
				recv = t
			case types.Implements(types.NewPointer(t), s.iface):
				recv = types.NewPointer(t)
			default:
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(recv, true, s.caller.Unit.Pkg, s.name)
			m, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			if callee := b.g.Node(m); callee != nil {
				b.edge(s.caller, callee, s.pos)
			}
		}
	}
}

// resolveFuncValues fans each call-through-value site out to every
// address-taken module function with an identical signature.
func (b *builder) resolveFuncValues() {
	var taken []*Node
	for _, n := range b.g.order {
		if n.AddressTaken {
			taken = append(taken, n)
		}
	}
	for _, s := range b.fvSites {
		for _, n := range taken {
			sig, ok := n.Func.Type().(*types.Signature)
			if !ok || !types.Identical(sig, s.sig) { // Identical ignores receivers
				continue
			}
			b.edge(s.caller, n, s.pos)
		}
	}
}

// Reached is one function's reachability record: the edge it was first
// discovered through and the annotated root that discovery started
// from.
type Reached struct {
	Node  *Node
	Pred  *Edge // nil for roots
	Root  *Node
	Depth int
}

// ReachSet maps each reachable function to its discovery record.
type ReachSet map[*types.Func]*Reached

// Chain reconstructs the discovery path root → … → fn (inclusive).
func (rs ReachSet) Chain(fn *types.Func) []*Node {
	var rev []*Node
	for r := rs[fn]; r != nil; {
		rev = append(rev, r.Node)
		if r.Pred == nil {
			break
		}
		r = rs[r.Pred.Caller.Func]
	}
	out := make([]*Node, len(rev))
	for i, n := range rev {
		out[len(rev)-1-i] = n
	}
	return out
}

// Reach runs a breadth-first search from roots over the out-edges,
// skipping edges for which skip returns true, and returns every
// function reached with its discovery path. Roots are visited in the
// order given, so discovery paths are deterministic.
func (g *Graph) Reach(roots []*Node, skip func(*Edge) bool) ReachSet {
	out := ReachSet{}
	var queue []*Reached
	for _, r := range roots {
		if r == nil || out[r.Func] != nil {
			continue
		}
		rr := &Reached{Node: r, Root: r}
		out[r.Func] = rr
		queue = append(queue, rr)
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, e := range cur.Node.Out {
			if out[e.Callee.Func] != nil {
				continue
			}
			if skip != nil && skip(e) {
				continue
			}
			rr := &Reached{Node: e.Callee, Pred: e, Root: cur.Root, Depth: cur.Depth + 1}
			out[e.Callee.Func] = rr
			queue = append(queue, rr)
		}
	}
	return out
}
