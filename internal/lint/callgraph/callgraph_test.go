package callgraph

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// src is one import-free package exercising each resolution mechanism.
// Other implements the same method set as Conc but is never used as a
// type argument, so an edge to Other.Get would mean the type-parameter
// site fell back to interface fan-out instead of following the
// instantiation chain.
const src = `package p

func leaf() int   { return 1 }
func static() int { return leaf() }

type getter interface{ Get() int }

type Conc struct{}
type Other struct{}

func (Conc) Get() int  { return 2 }
func (Other) Get() int { return 3 }

func AccessWith[P getter](p P) int { return p.Get() }
func outer[P getter](p P) int      { return AccessWith[P](p) }
func useOuter() int                { return outer(Conc{}) }

type Shape interface{ Area() int }
type Sq struct{}
type Circ struct{}

func (Sq) Area() int    { return 4 }
func (*Circ) Area() int { return 5 }

func area(s Shape) int { return s.Area() }

func addOne(x int) int  { return x + 1 }
func addTwo(x int) int  { return x + 2 }
func length(s string) int { return len(s) }

func pick() func(int) int {
	_ = length
	return addOne
}
func direct() int                  { return addTwo(1) }
func callHook(f func(int) int) int { return f(3) }
`

// build type-checks src and returns its package and call graph.
func build(t *testing.T) (*types.Package, *Graph) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:     map[ast.Expr]types.TypeAndValue{},
		Defs:      map[*ast.Ident]types.Object{},
		Uses:      map[*ast.Ident]types.Object{},
		Instances: map[*ast.Ident]types.Instance{},
	}
	pkg, err := (&types.Config{}).Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	return pkg, Build([]*Unit{{Path: "p", Name: "p", Fset: fset, Files: []*ast.File{f}, Pkg: pkg, Info: info}})
}

// fn looks up a function ("leaf") or method ("Conc.Get") of pkg.
func fn(t *testing.T, pkg *types.Package, name string) *types.Func {
	t.Helper()
	obj := pkg.Scope().Lookup(name)
	if typ, method, ok := strings.Cut(name, "."); ok {
		obj, _, _ = types.LookupFieldOrMethod(pkg.Scope().Lookup(typ).Type(), true, pkg, method)
	}
	f, ok := obj.(*types.Func)
	if !ok {
		t.Fatalf("no function %s in the test package", name)
	}
	return f
}

// node returns the graph node of the named function.
func node(t *testing.T, pkg *types.Package, g *Graph, name string) *Node {
	t.Helper()
	n := g.Node(fn(t, pkg, name))
	if n == nil {
		t.Fatalf("%s has no graph node", name)
	}
	return n
}

// callees returns the names of the functions n has out-edges to.
func callees(n *Node) map[string]bool {
	out := map[string]bool{}
	for _, e := range n.Out {
		name := e.Callee.Name()
		if recv := e.Callee.Func.Type().(*types.Signature).Recv(); recv != nil {
			rt := recv.Type()
			if p, ok := rt.(*types.Pointer); ok {
				rt = p.Elem()
			}
			name = rt.(*types.Named).Obj().Name() + "." + name
		}
		out[name] = true
	}
	return out
}

func TestBuildEdges(t *testing.T) {
	pkg, g := build(t)
	for _, tc := range []struct {
		caller    string
		want, not []string
	}{
		{caller: "static", want: []string{"leaf"}},
		{caller: "useOuter", want: []string{"outer"}},
		{caller: "outer", want: []string{"AccessWith"}},
		// Resolved through the outer[P] → AccessWith[P] substitution
		// fixpoint: only the instantiated type's method is a callee.
		{caller: "AccessWith", want: []string{"Conc.Get"}, not: []string{"Other.Get"}},
		{caller: "area", want: []string{"Sq.Area", "Circ.Area"}},
		// Only address-taken functions of the identical signature.
		{caller: "callHook", want: []string{"addOne"}, not: []string{"addTwo", "length"}},
		{caller: "direct", want: []string{"addTwo"}},
	} {
		got := callees(node(t, pkg, g, tc.caller))
		for _, w := range tc.want {
			if !got[w] {
				t.Errorf("%s: missing edge to %s (callees %v)", tc.caller, w, got)
			}
		}
		for _, n := range tc.not {
			if got[n] {
				t.Errorf("%s: unexpected edge to %s", tc.caller, n)
			}
		}
		if len(got) != len(tc.want) {
			t.Errorf("%s: callees %v, want exactly %v", tc.caller, got, tc.want)
		}
	}
}

func TestReach(t *testing.T) {
	pkg, g := build(t)
	root := node(t, pkg, g, "useOuter")
	get := fn(t, pkg, "Conc.Get")
	access := node(t, pkg, g, "AccessWith")

	rs := g.Reach([]*Node{root}, nil)
	var chain []string
	for _, n := range rs.Chain(get) {
		chain = append(chain, n.Name())
	}
	if got, want := strings.Join(chain, " → "), "useOuter → outer → AccessWith → Get"; got != want {
		t.Errorf("Chain(Conc.Get) = %s, want %s", got, want)
	}
	if r := rs[get]; r == nil || r.Root != root || r.Depth != 3 {
		t.Errorf("Conc.Get reach record = %+v, want root useOuter at depth 3", r)
	}
	if rs[fn(t, pkg, "leaf")] != nil {
		t.Error("leaf is not reachable from useOuter")
	}

	pruned := g.Reach([]*Node{root}, func(e *Edge) bool { return e.Caller == access })
	if pruned[access.Func] == nil {
		t.Error("AccessWith should stay reached: only its out-edge is pruned")
	}
	if pruned[get] != nil {
		t.Error("Conc.Get reached through a pruned edge")
	}
}
