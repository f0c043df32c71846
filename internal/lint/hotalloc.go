package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"ghrpsim/internal/lint/callgraph"
)

// hotPathMarker is the annotation that opts a function into HotAlloc.
const hotPathMarker = "//ghrp:hotpath"

// HotAlloc statically enforces the zero-allocation contract on the
// replay hot path. Functions annotated //ghrp:hotpath — FanOut.Process, the
// per-lane access step, the prefetch filter, the perceptron
// predict/update round trip — run once or more per branch record;
// testing.AllocsPerRun pins their allocation count at test time, and
// this analyzer pins the same property at lint time, before a test ever
// runs. Annotated functions and every module function transitively
// reachable from them through the call graph — static calls, the
// generic AccessWith specializations, interface fan-out, calls through
// function values — are checked for heap-allocating constructs:
//
//   - make / new / slice and map literals / &T{...}
//   - append to a buffer that is not visibly pre-sized (reslice it with
//     x = x[:0] in the same function, pass it in as a parameter, or
//     append to x[:0] directly)
//   - fmt calls and non-constant string concatenation
//   - closures (func literals)
//   - boxing: converting, passing or returning a non-pointer-shaped
//     value as an interface
//
// Each diagnostic in a reached function names the call chain that made
// it hot. Propagation stops at call sites whose line carries a
// //ghrplint:ignore hotalloc directive, so a suppressed cold branch (a
// panic path) does not drag its callees onto the hot path. Calls
// through closures are the one blind spot: function literals are not
// call-graph nodes — but creating the closure inside hot code is itself
// flagged, so the gap cannot go unnoticed.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "flag heap allocations in //ghrp:hotpath functions and everything they transitively call",
	Run: func(pass *Pass) {
		var roots []*callgraph.Node
		for _, pkg := range pass.Pkgs {
			for _, f := range pkg.Files {
				for _, d := range f.Decls {
					fd, ok := d.(*ast.FuncDecl)
					if !ok || fd.Body == nil || !hotPathAnnotated(fd) {
						continue
					}
					if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
						if n := pass.Graph.Node(obj); n != nil {
							roots = append(roots, n)
						}
					}
				}
			}
		}
		reached := pass.Graph.Reach(roots, func(e *callgraph.Edge) bool {
			// A suppressed call site is a cold branch: do not let it pull
			// its callees onto the hot path.
			return pass.IgnoredAt(e.Pos)
		})
		for _, n := range pass.Graph.Nodes() {
			if reached[n.Func] == nil {
				continue
			}
			pkg := pass.PackageOf(n)
			if pkg == nil {
				continue
			}
			checkHotFunc(pass, pkg, n.Decl, hotVia(reached, n))
		}
	},
}

// hotVia renders the discovery chain of a reached function: empty for
// annotated roots, " (on the //ghrp:hotpath path via A -> B)" for a
// function reached from root A through B.
func hotVia(reached callgraph.ReachSet, n *callgraph.Node) string {
	chain := reached.Chain(n.Func)
	if len(chain) <= 1 {
		return "" // n is itself a root
	}
	names := make([]string, len(chain)-1)
	for i, c := range chain[:len(chain)-1] {
		names[i] = c.Name()
	}
	return " (on the " + hotPathMarker + " path via " + strings.Join(names, " -> ") + ")"
}

// hotPathAnnotated reports whether the declaration's doc comment
// carries the //ghrp:hotpath marker.
func hotPathAnnotated(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(c.Text, hotPathMarker) {
			return true
		}
	}
	return false
}

// checkHotFunc reports every allocating construct in one function.
// via is the rendered hot-path chain suffix ("" when fd is itself
// annotated).
func checkHotFunc(pass *Pass, pkg *Package, fd *ast.FuncDecl, via string) {
	report := func(pos token.Pos, format string, args ...any) {
		pass.Reportf(pos, format+"%s", append(args, via)...)
	}
	presized := presizedBuffers(fd)
	params := paramObjects(pkg, fd)
	sig, _ := pkg.Info.Defs[fd.Name].(*types.Func)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// The literal itself is the allocation; its body has its own
			// signature and is not walked further.
			report(n.Pos(), "closure allocates")
			return false
		case *ast.CallExpr:
			checkHotCall(pass, pkg, n, presized, params, report)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					report(n.Pos(), "&composite literal escapes to the heap")
				}
			}
		case *ast.CompositeLit:
			if tv, ok := pkg.Info.Types[n]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Slice:
					report(n.Pos(), "slice literal allocates its backing array")
				case *types.Map:
					report(n.Pos(), "map literal allocates")
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if tv, ok := pkg.Info.Types[n]; ok && tv.Value == nil && isString(tv.Type) {
					report(n.Pos(), "string concatenation allocates")
				}
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN {
				if tv, ok := pkg.Info.Types[n.Lhs[0]]; ok && isString(tv.Type) {
					report(n.Pos(), "string concatenation allocates")
				}
			}
			checkInterfaceAssign(pkg, n, report)
		case *ast.ReturnStmt:
			if sig != nil {
				checkInterfaceReturn(pkg, n, sig.Type().(*types.Signature), report)
			}
		}
		return true
	})
}

// presizedBuffers collects the buffers fd visibly resets with
// `x = x[:0]`, the reuse idiom that keeps append from growing.
func presizedBuffers(fd *ast.FuncDecl) map[string]bool {
	out := map[string]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i := range as.Lhs {
			if se, ok := as.Rhs[i].(*ast.SliceExpr); ok && isZeroReslice(se) &&
				types.ExprString(se.X) == types.ExprString(as.Lhs[i]) {
				out[types.ExprString(as.Lhs[i])] = true
			}
		}
		return true
	})
	return out
}

// isZeroReslice matches x[:0].
func isZeroReslice(se *ast.SliceExpr) bool {
	if se.Low != nil || se.High == nil || se.Slice3 {
		return false
	}
	lit, ok := se.High.(*ast.BasicLit)
	return ok && lit.Value == "0"
}

// paramObjects returns the objects of fd's parameters: appending to a
// parameter slice is the caller's pre-sizing contract, not this
// function's allocation.
func paramObjects(pkg *Package, fd *ast.FuncDecl) map[types.Object]bool {
	out := map[types.Object]bool{}
	if fd.Type.Params == nil {
		return out
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if obj := pkg.Info.Defs[name]; obj != nil {
				out[obj] = true
			}
		}
	}
	return out
}

// checkHotCall handles the call-shaped allocation sources: make/new,
// unsized append, fmt, string<->[]byte conversions, and boxing a value
// argument into an interface parameter.
func checkHotCall(pass *Pass, pkg *Package, call *ast.CallExpr, presized map[string]bool, params map[types.Object]bool, report func(token.Pos, string, ...any)) {
	tv, ok := pkg.Info.Types[call.Fun]
	if !ok {
		return
	}
	switch {
	case tv.IsType(): // conversion
		if len(call.Args) != 1 {
			return
		}
		src, ok := pkg.Info.Types[call.Args[0]]
		if !ok {
			return
		}
		if isStringBytesConv(tv.Type, src.Type) {
			report(call.Pos(), "%s conversion copies and allocates", types.ExprString(call.Fun))
		} else if types.IsInterface(tv.Type) && boxes(src.Type) && src.Value == nil {
			report(call.Pos(), "converting %s to interface %s boxes it on the heap", src.Type, tv.Type)
		}
	case tv.IsBuiltin():
		id, _ := ast.Unparen(call.Fun).(*ast.Ident)
		if id == nil {
			return
		}
		switch id.Name {
		case "make":
			report(call.Pos(), "make allocates; hoist the buffer out of the hot path and reuse it")
		case "new":
			report(call.Pos(), "new allocates; hoist the value out of the hot path")
		case "append":
			if len(call.Args) == 0 {
				return
			}
			if appendPreSized(pkg, call.Args[0], presized, params) {
				return
			}
			report(call.Pos(), "append may grow its backing array; reuse a pre-sized buffer (x = x[:0]) instead")
		}
	default:
		if fn := calledFunc(pkg, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
			report(call.Pos(), "fmt.%s allocates (formatting boxes its operands)", fn.Name())
		}
		sig, ok := tv.Type.(*types.Signature)
		if !ok {
			return
		}
		checkBoxingArgs(pkg, call, sig, report)
	}
}

// appendPreSized reports whether the append target is visibly reused:
// appended to as x[:0] directly, reset with x = x[:0] in this function,
// or a parameter (pre-sized by the caller's contract).
func appendPreSized(pkg *Package, dst ast.Expr, presized map[string]bool, params map[types.Object]bool) bool {
	if se, ok := ast.Unparen(dst).(*ast.SliceExpr); ok && isZeroReslice(se) {
		return true
	}
	if presized[types.ExprString(dst)] {
		return true
	}
	if id, ok := ast.Unparen(dst).(*ast.Ident); ok && params[pkg.Info.Uses[id]] {
		return true
	}
	return false
}

// checkBoxingArgs flags concrete non-pointer-shaped arguments passed to
// interface parameters — each such call boxes the value on the heap.
func checkBoxingArgs(pkg *Package, call *ast.CallExpr, sig *types.Signature, report func(token.Pos, string, ...any)) {
	np := sig.Params().Len()
	for i, arg := range call.Args {
		var param types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			if call.Ellipsis.IsValid() {
				param = sig.Params().At(np - 1).Type() // s... passes the slice itself
			} else {
				param = sig.Params().At(np - 1).Type().(*types.Slice).Elem()
			}
		case i < np:
			param = sig.Params().At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(param) {
			continue
		}
		tv, ok := pkg.Info.Types[arg]
		if !ok || tv.IsNil() || tv.Value != nil {
			continue
		}
		if boxes(tv.Type) {
			report(arg.Pos(), "passing %s as interface %s boxes it on the heap", tv.Type, param)
		}
	}
}

// checkInterfaceAssign flags plain assignments that box a concrete
// value into an interface-typed variable or field.
func checkInterfaceAssign(pkg *Package, as *ast.AssignStmt, report func(token.Pos, string, ...any)) {
	if as.Tok != token.ASSIGN || len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i := range as.Lhs {
		lt, ok := pkg.Info.Types[as.Lhs[i]]
		if !ok || !types.IsInterface(lt.Type) {
			continue
		}
		rt, ok := pkg.Info.Types[as.Rhs[i]]
		if !ok || rt.IsNil() || rt.Value != nil {
			continue
		}
		if boxes(rt.Type) {
			report(as.Rhs[i].Pos(), "assigning %s to interface %s boxes it on the heap", rt.Type, lt.Type)
		}
	}
}

// checkInterfaceReturn flags returning a concrete value through an
// interface result.
func checkInterfaceReturn(pkg *Package, ret *ast.ReturnStmt, sig *types.Signature, report func(token.Pos, string, ...any)) {
	if sig.Results().Len() != len(ret.Results) {
		return // bare return or single multi-value call
	}
	for i, res := range ret.Results {
		param := sig.Results().At(i).Type()
		if !types.IsInterface(param) {
			continue
		}
		tv, ok := pkg.Info.Types[res]
		if !ok || tv.IsNil() || tv.Value != nil {
			continue
		}
		if boxes(tv.Type) {
			report(res.Pos(), "returning %s as interface %s boxes it on the heap", tv.Type, param)
		}
	}
}

// isStringBytesConv matches the copying conversions between string and
// []byte / []rune.
func isStringBytesConv(dst, src types.Type) bool {
	return (isString(dst) && isByteOrRuneSlice(src)) || (isByteOrRuneSlice(dst) && isString(src))
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune)
}

// boxes reports whether converting a value of type t to an interface
// heap-allocates: true for everything that is not already an interface
// and not pointer-shaped (pointers, maps, chans, funcs and unsafe
// pointers fit in the interface word directly).
func boxes(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Interface, *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return false
	case *types.Basic:
		return u.Kind() != types.UnsafePointer
	}
	return true
}
