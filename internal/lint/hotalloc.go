package lint

import (
	"go/ast"
	"go/types"

	"loopsched/internal/hotpath"
)

// HotAlloc is the annotation-driven zero-allocation checker. A
// function marked //lint:loopsched-hotpath (see internal/hotpath)
// declares that its steady-state executions must not touch the heap —
// the property the wire codec, the Chase–Lev deque and the telemetry
// publish path buy their throughput with, and which before this
// analyzer was pinned only dynamically by AllocsPerRun guards. The
// analyzer rejects the heap-escaping constructs in every annotated
// function and in every same-package function it (transitively)
// calls:
//
//   - fmt.* and errors.New calls — unless the call is part of a
//     return or panic statement (the cold error path: by the time a
//     decode error is being built, the hot path is over);
//   - map/slice composite literals, make, new, and &T{…};
//   - explicit conversions to interface types (the value escapes into
//     the interface);
//   - capturing closures (the closure and its captures may allocate);
//   - go statements (a goroutine allocates its stack);
//   - append whose destination is not rooted in a parameter or
//     receiver (growing locally-allocated slices is unbounded heap
//     traffic; appending to a caller-provided buffer is the codec's
//     own idiom and stays amortised by the caller's reuse).
//
// Calls into other packages of the module are not followed — the
// callee package annotates its own hot functions, and the dynamic
// side (AllocsPerRun guard tables generated from the same annotations
// plus cmd/escapecheck's `go build -gcflags=-m` cross-check) covers
// the composition. Deliberate allocations on genuinely cold branches
// carry //lint:loopsched-ignore hotalloc with a reason.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc: "//lint:loopsched-hotpath functions (and their same-package callees) must not use " +
		"heap-allocating constructs: no fmt, map/slice literals, make/new, interface " +
		"conversions, capturing closures, go statements, or append to local slices",
	Run: runHotAlloc,
}

// hotAllocPass bundles the per-package indexes one hotalloc run needs.
type hotAllocPass struct {
	pass *Pass
	info *types.Info
	// decls: functions declared in this package, for call following.
	decls map[types.Object]*ast.FuncDecl
	// firstAssign: object → RHS of its first := (or =) assignment, for
	// tracing append destinations back to parameters.
	firstAssign map[types.Object]ast.Expr
	// parents: per-file parent maps, built lazily.
	parents map[*ast.File]parentMap
}

func runHotAlloc(pass *Pass) error {
	roots := hotpath.AnnotatedDecls(pass.Fset, pass.Files)
	if len(roots) == 0 {
		return nil
	}
	h := &hotAllocPass{
		pass:        pass,
		info:        pass.TypesInfo,
		decls:       map[types.Object]*ast.FuncDecl{},
		firstAssign: map[types.Object]ast.Expr{},
		parents:     map[*ast.File]parentMap{},
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if obj := h.info.Defs[fn.Name]; obj != nil {
				h.decls[obj] = fn
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			a, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, lhs := range a.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj := h.info.Defs[id]
				if obj == nil {
					obj = h.info.Uses[id]
				}
				if obj == nil {
					continue
				}
				if _, seen := h.firstAssign[obj]; seen {
					continue
				}
				if len(a.Rhs) == len(a.Lhs) {
					h.firstAssign[obj] = a.Rhs[i]
				}
			}
			return true
		})
	}

	// Close the hot set over same-package calls, checking each function
	// once. via[fn] names the annotated root for the diagnostic text.
	via := map[*ast.FuncDecl]string{}
	var queue []*ast.FuncDecl
	for _, fn := range roots {
		if _, seen := via[fn]; !seen {
			via[fn] = "" // annotated directly
			queue = append(queue, fn)
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		h.checkFunc(fn, via[fn])
		for _, callee := range h.callees(fn) {
			if _, seen := via[callee]; seen {
				continue
			}
			root := via[fn]
			if root == "" {
				root = hotpath.DeclName(fn)
			}
			via[callee] = root
			queue = append(queue, callee)
		}
	}
	return nil
}

// callees resolves the same-package functions fn calls (function
// literals excluded: capturing ones are flagged as constructs, and a
// literal's body is not a continuation the annotation covers).
func (h *hotAllocPass) callees(fn *ast.FuncDecl) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	walkOutsideFuncLits(fn.Body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		var obj types.Object
		switch f := call.Fun.(type) {
		case *ast.Ident:
			obj = h.info.Uses[f]
		case *ast.SelectorExpr:
			obj = h.info.Uses[f.Sel]
		default:
			return
		}
		if obj == nil {
			return
		}
		if callee, ok := h.decls[obj]; ok {
			out = append(out, callee)
		}
	})
	return out
}

// fileParents returns (building lazily) the parent map of the file
// containing pos.
func (h *hotAllocPass) fileParents(fn *ast.FuncDecl) parentMap {
	for _, f := range h.pass.Files {
		if f.Pos() <= fn.Pos() && fn.Pos() <= f.End() {
			if p, ok := h.parents[f]; ok {
				return p
			}
			p := buildParents(f)
			h.parents[f] = p
			return p
		}
	}
	return parentMap{}
}

// checkFunc reports every heap-escaping construct in one hot function.
func (h *hotAllocPass) checkFunc(fn *ast.FuncDecl, root string) {
	where := hotpath.DeclName(fn)
	if root != "" {
		where += " (reached from hot path " + root + ")"
	}
	params := h.paramObjects(fn)
	parents := h.fileParents(fn)
	report := func(n ast.Node, what string) {
		h.pass.Report(n.Pos(), "hot path %s: %s", where, what)
	}

	walkOutsideFuncLits(fn.Body, func(n ast.Node) {
		switch x := n.(type) {
		case *ast.GoStmt:
			report(x, "go statement spawns a goroutine (stack allocation) on the hot path")
		case *ast.CompositeLit:
			if tv, ok := h.info.Types[x]; ok && tv.Type != nil {
				switch tv.Type.Underlying().(type) {
				case *types.Map:
					report(x, "map literal allocates")
				case *types.Slice:
					report(x, "slice literal allocates")
				}
			}
		case *ast.UnaryExpr:
			if _, ok := x.X.(*ast.CompositeLit); ok && x.Op.String() == "&" {
				report(x, "&composite literal escapes to the heap")
			}
		case *ast.CallExpr:
			h.checkCall(parents, params, x, report)
		}
	})

	// Capturing closures: walkOutsideFuncLits does not descend into
	// literals, but the literal node itself is a construct of the
	// enclosing hot function.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		if h.capturesOuter(lit) {
			report(lit, "capturing closure may allocate (captured variables move to the heap)")
		}
		return false // the literal's own body is not hot
	})
}

// checkCall classifies one call expression inside a hot function.
func (h *hotAllocPass) checkCall(parents parentMap, params map[types.Object]bool, call *ast.CallExpr, report func(ast.Node, string)) {
	// Explicit conversion T(x) where T is an interface type.
	if tv, ok := h.info.Types[call.Fun]; ok && tv.IsType() {
		if _, isIface := tv.Type.Underlying().(*types.Interface); isIface && len(call.Args) == 1 {
			if argTV, ok := h.info.Types[call.Args[0]]; ok && argTV.Type != nil {
				if _, already := argTV.Type.Underlying().(*types.Interface); !already {
					report(call, "conversion to interface type allocates")
				}
			}
		}
		return
	}

	switch fun := call.Fun.(type) {
	case *ast.Ident:
		b, ok := h.info.Uses[fun].(*types.Builtin)
		if !ok {
			return
		}
		switch b.Name() {
		case "make":
			report(call, "make allocates")
		case "new":
			report(call, "new allocates")
		case "append":
			if len(call.Args) > 0 && !h.rootedInParam(params, call.Args[0], 0) {
				report(call, "append to a locally-allocated slice grows the heap on the hot path "+
					"(append only to caller-provided buffers)")
			}
		}
	case *ast.SelectorExpr:
		fn, ok := h.info.Uses[fun.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return
		}
		switch fn.Pkg().Path() {
		case "fmt":
			if !onColdErrorPath(parents, call) {
				report(call, "fmt."+fn.Name()+" allocates (its arguments escape into interfaces)")
			}
		case "errors":
			if fn.Name() == "New" && !onColdErrorPath(parents, call) {
				report(call, "errors.New allocates")
			}
		}
	}
}

// onColdErrorPath reports whether the call is part of a return or
// panic statement: building the error that ends the hot path is cold
// by definition.
func onColdErrorPath(parents parentMap, call *ast.CallExpr) bool {
	for p := parents[call]; p != nil; p = parents[p] {
		switch x := p.(type) {
		case *ast.ReturnStmt:
			return true
		case *ast.CallExpr:
			if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		case *ast.BlockStmt, *ast.FuncDecl, *ast.FuncLit:
			return false
		}
	}
	return false
}

// paramObjects collects the function's parameter, result and receiver
// objects: slices rooted in these belong to the caller, so appending
// to them is the caller's amortised buffer reuse, not fresh growth.
func (h *hotAllocPass) paramObjects(fn *ast.FuncDecl) map[types.Object]bool {
	out := map[types.Object]bool{}
	add := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if obj := h.info.Defs[name]; obj != nil {
					out[obj] = true
				}
			}
		}
	}
	add(fn.Recv)
	if fn.Type != nil {
		add(fn.Type.Params)
		add(fn.Type.Results)
	}
	return out
}

// rootedInParam reports whether the expression's base identifier is a
// parameter/receiver (directly, through selectors/indices/slices, or
// through a local whose first assignment was itself parameter-rooted —
// the `c := &s.lanes[worker].counters` idiom).
func (h *hotAllocPass) rootedInParam(params map[types.Object]bool, e ast.Expr, depth int) bool {
	if depth > 4 {
		return false
	}
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.SelectorExpr:
			// A field chain rooted at a receiver (c.rbuf) belongs to the
			// receiver's owner.
			e = x.X
		case *ast.Ident:
			obj := h.info.Uses[x]
			if obj == nil {
				obj = h.info.Defs[x]
			}
			if obj == nil {
				return false
			}
			if params[obj] {
				return true
			}
			if init, ok := h.firstAssign[obj]; ok && init != x {
				return h.rootedInParam(params, init, depth+1)
			}
			return false
		default:
			return false
		}
	}
}

// capturesOuter reports whether the literal references any identifier
// declared outside itself (package-level and universe names excluded):
// those captures are what force the closure onto the heap.
func (h *hotAllocPass) capturesOuter(lit *ast.FuncLit) bool {
	declared := map[types.Object]bool{}
	ast.Inspect(lit, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := h.info.Defs[id]; obj != nil {
				declared[obj] = true
			}
		}
		return true
	})
	captures := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captures {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := h.info.Uses[id]
		if obj == nil || declared[obj] {
			return true
		}
		v, isVar := obj.(*types.Var)
		if !isVar || v.IsField() {
			return true // package funcs/types/consts and fields via receiver don't capture
		}
		if obj.Parent() != nil && obj.Parent().Parent() == types.Universe {
			return true // package-level variable: no capture
		}
		captures = true
		return false
	})
	return captures
}
