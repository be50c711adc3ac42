// Package lockflow checks Lock/Unlock balance along every control-flow path,
// checks `guarded by` field annotations against the locks held there, and
// accumulates a cross-package lock-acquisition-order graph.
//
// It runs the cfg engine over every function and function literal: a
// must-held lattice (a lock is in the fact only if every path to this point
// acquired it and has not released it) flows forward, deferred unlocks —
// including unlocks inside deferred function literals — count as releases on
// every exit, and any return or fall-off end still holding a non-deferred
// lock is reported. Intersection join means a conditionally-acquired lock is
// never reported, trading false negatives for silence — the right bias for a
// gate that blocks `make verify`.
//
// The same facts check guarded fields, in the manner of gVisor's checklocks.
// A struct field whose comment says `guarded by mu` names a sibling
// sync.Mutex/RWMutex field; `guarded by rec.mu` names the mutex field mu of
// the struct a sibling pointer field rec points to (a flight log's state is
// guarded by its recorder's mutex). An annotation that names anything else
// is reported at the field and not checked further. An access x.f to a
// field guarded by g is legal only where
//
//   - x.g is must-held, by Lock or RLock;
//   - the enclosing method's name ends in "Locked", the repo's convention for
//     helpers whose callers hold the lock; or
//   - x is a variable declared in the function body: a constructor's fresh
//     value, not yet shared (receivers and parameters do not count).
//
// A function literal starts with no lock held: it may run after its creator
// released the lock. Because the facts are per path, an access after an
// early Unlock, under a lock held on one branch only, or under another
// instance's mutex is reported.
//
// The walk also feeds a process-global acquisition-order graph: acquiring B
// while holding A adds the edge A→B, where A and B are stable cross-package
// identifiers ("pkg.Type.field" for struct mutexes, "pkg.var" for
// package-level ones — the same mutexes `guarded by` annotations name).
// An edge that closes a cycle is a lock-order inversion — two goroutines
// taking the same pair in opposite orders can deadlock — and is reported at
// the acquisition that closes it. Local mutex variables have no stable
// identity and stay out of the graph.
package lockflow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"

	"kwsdbg/internal/lint/analysis"
	"kwsdbg/internal/lint/cfg"
)

// Analyzer is the path-sensitive lock balance, guarded-field and ordering
// checker.
var Analyzer = &analysis.Analyzer{
	Name: "lockflow",
	Doc: "every mutex acquired must be released on all exit paths or via defer; " +
		"`guarded by mu` fields are touched only where their mutex is held on every path; " +
		"nested acquisitions must agree on a global lock order (deadlock risk)",
	Run: run,
}

// orderEdges is the cross-package acquisition-order graph: from -> to -> the
// position of one acquisition that witnessed the edge. It accumulates across
// every package the driver runs, which is the point: an A→B edge in storage
// and a B→A edge in server is a deadlock neither package can see alone.
var orderEdges = map[string]map[string]token.Pos{}

// ResetForTest clears the accumulated order graph between fixture runs.
func ResetForTest() { orderEdges = map[string]map[string]token.Pos{} }

func run(pass *analysis.Pass) error {
	guards := collectGuards(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			locked := fd.Recv != nil && strings.HasSuffix(fd.Name.Name, "Locked")
			checkBody(pass, guards, fd.Name.Name, fd.Body, locked)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if fl, ok := n.(*ast.FuncLit); ok {
					checkBody(pass, guards, fd.Name.Name+": func literal", fl.Body, false)
				}
				return true
			})
		}
	}
	return nil
}

// guardPattern extracts the guard from an annotation comment: a mutex field
// name, or a pointer field name and the mutex field it leads to.
var guardPattern = regexp.MustCompile(`(?i)\bguarded by (\w+(?:\.\w+)?)\b`)

// guard names the mutex protecting one annotated field: mutex is the
// selector path from a value of the owning struct to it ("mu" or "rec.mu").
type guard struct {
	owner string // the struct's type name, for diagnostics
	mutex string
}

// collectGuards finds the annotated fields of this package's struct types.
// An annotation must name a sync.Mutex/RWMutex sibling field, or such a
// field of the struct a sibling pointer field points to; any other is
// reported at the field, which is then left unchecked.
func collectGuards(pass *analysis.Pass) map[*types.Var]guard {
	guards := make(map[*types.Var]guard)
	pass.Inspect(func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok {
			return true
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			return true
		}
		for _, field := range st.Fields.List {
			mutex, ok := guardAnnotation(field)
			if !ok {
				continue
			}
			if ptr, mu, through := strings.Cut(mutex, "."); through {
				if !hasPointedMutex(pass, st, ptr, mu) {
					pass.Reportf(field.Pos(),
						"guarded-by annotation names %q, which is not a sync.Mutex/RWMutex field reached through a pointer field of %s",
						mutex, ts.Name.Name)
					continue
				}
			} else if !isMutex(fieldType(pass, st, mutex)) {
				pass.Reportf(field.Pos(),
					"guarded-by annotation names %q, which is not a sync.Mutex/RWMutex field of %s",
					mutex, ts.Name.Name)
				continue
			}
			for _, name := range field.Names {
				if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
					guards[v] = guard{owner: ts.Name.Name, mutex: mutex}
				}
			}
		}
		return true
	})
	return guards
}

// guardAnnotation reads a field's doc or trailing line comment.
func guardAnnotation(field *ast.Field) (string, bool) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		if m := guardPattern.FindStringSubmatch(cg.Text()); m != nil {
			return m[1], true
		}
	}
	return "", false
}

// hasPointedMutex reports whether st has a field ptr of pointer-to-struct
// type whose struct has a sync.Mutex/RWMutex field mu.
func hasPointedMutex(pass *analysis.Pass, st *ast.StructType, ptr, mu string) bool {
	p, ok := fieldType(pass, st, ptr).(*types.Pointer)
	if !ok {
		return false
	}
	pointee, ok := p.Elem().Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < pointee.NumFields(); i++ {
		if f := pointee.Field(i); f.Name() == mu {
			return isMutex(f.Type())
		}
	}
	return false
}

// fieldType returns the type of st's field called name, or nil.
func fieldType(pass *analysis.Pass, st *ast.StructType, name string) types.Type {
	for _, field := range st.Fields.List {
		for _, fn := range field.Names {
			if fn.Name == name {
				return pass.TypesInfo.TypeOf(field.Type)
			}
		}
	}
	return nil
}

// isMutex reports whether t is sync.Mutex or sync.RWMutex; t may be nil.
func isMutex(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	full := named.Obj().Pkg().Path() + "." + named.Obj().Name()
	return full == "sync.Mutex" || full == "sync.RWMutex"
}

// fact is the must-held lock state at a program point.
type fact struct {
	// held maps a lock key to the position of its acquisition. Keys are the
	// source path of the locked expression ("c.mu"), prefixed "R:" for read
	// locks so RLock/RUnlock balance independently of Lock/Unlock.
	held map[string]token.Pos
	// deferred marks locks whose release is scheduled by a defer on every
	// path reaching this point.
	deferred map[string]bool
}

func (f fact) clone() fact {
	out := fact{
		held:     make(map[string]token.Pos, len(f.held)),
		deferred: make(map[string]bool, len(f.deferred)),
	}
	for k, v := range f.held {
		out.held[k] = v
	}
	for k := range f.deferred {
		out.deferred[k] = true
	}
	return out
}

// lattice implements cfg.Lattice[fact]; apply is shared between the pure
// fixpoint transfer and the single post-fixpoint reporting walk.
type lattice struct {
	pass     *analysis.Pass
	funcName string
	// guards are the package's annotated fields; body is the function body
	// being walked, whose own variables are fresh values; locked is set in a
	// *Locked method, whose callers hold every guard.
	guards map[*types.Var]guard
	body   *ast.BlockStmt
	locked bool
	// ids caches held-key → order-ID resolutions within one function walk
	// (the held map stores source paths, which only the acquiring selector
	// could resolve to a typed identity).
	ids map[string]string
}

func (l *lattice) Entry() fact {
	return fact{held: map[string]token.Pos{}, deferred: map[string]bool{}}
}

func (l *lattice) Join(a, b fact) fact {
	out := fact{held: map[string]token.Pos{}, deferred: map[string]bool{}}
	for k, pa := range a.held {
		if pb, ok := b.held[k]; ok {
			if pb < pa {
				pa = pb
			}
			out.held[k] = pa
		}
	}
	for k := range a.deferred {
		if b.deferred[k] {
			out.deferred[k] = true
		}
	}
	return out
}

func (l *lattice) Equal(a, b fact) bool {
	if len(a.held) != len(b.held) || len(a.deferred) != len(b.deferred) {
		return false
	}
	for k, v := range a.held {
		if w, ok := b.held[k]; !ok || v != w {
			return false
		}
	}
	for k := range a.deferred {
		if !b.deferred[k] {
			return false
		}
	}
	return true
}

func (l *lattice) Transfer(b *cfg.Block, in fact) fact {
	return l.apply(b, in, false)
}

// apply pushes a fact through one block. With report set (the one
// post-fixpoint walk over converged inputs) it emits diagnostics and feeds
// the order graph; the fixpoint itself runs silent.
func (l *lattice) apply(b *cfg.Block, in fact, report bool) fact {
	f := in.clone()
	for _, s := range b.Stmts {
		if report {
			l.checkAccesses(s, f)
		}
		switch s := s.(type) {
		case *ast.ExprStmt:
			call, ok := s.X.(*ast.CallExpr)
			if !ok {
				continue
			}
			l.call(call, &f, report)
		case *ast.DeferStmt:
			for _, key := range deferredReleases(s.Call) {
				f.deferred[key] = true
			}
		case *ast.ReturnStmt:
			if report {
				l.reportLeaks(f, s.Pos(), "returns")
			}
		}
	}
	return f
}

// call interprets one expression-statement call for lock effects.
func (l *lattice) call(call *ast.CallExpr, f *fact, report bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	key, kok := lockKey(sel.X, sel.Sel.Name)
	if !kok {
		return
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		if report {
			if prev, dup := f.held[key]; dup && sel.Sel.Name == "Lock" {
				l.pass.Reportf(call.Pos(),
					"%s acquires %s twice without releasing it (first at %s): self-deadlock",
					l.funcName, exprPath(sel.X), l.pos(prev))
			}
			l.recordOrder(*f, sel, call.Pos())
		}
		f.held[key] = call.Pos()
	case "Unlock", "RUnlock":
		delete(f.held, key)
		delete(f.deferred, key)
	}
}

// checkAccesses reports each guarded field access that statement s
// evaluates where its guard is not must-held in f. A control statement
// contributes only its header: its bodies sit in successor blocks, and its
// init and post statements are statements of their own. Function literals
// are skipped; each is walked as a body of its own.
func (l *lattice) checkAccesses(s ast.Stmt, f fact) {
	if len(l.guards) == 0 {
		return
	}
	var evaluated []ast.Node
	switch s := s.(type) {
	case *ast.IfStmt:
		evaluated = []ast.Node{s.Cond}
	case *ast.ForStmt:
		evaluated = []ast.Node{s.Cond}
	case *ast.RangeStmt:
		evaluated = []ast.Node{s.Key, s.Value, s.X}
	case *ast.SwitchStmt:
		evaluated = []ast.Node{s.Tag}
		for _, cc := range s.Body.List {
			for _, e := range cc.(*ast.CaseClause).List {
				evaluated = append(evaluated, e)
			}
		}
	case *ast.TypeSwitchStmt, *ast.SelectStmt:
		// The type switch's assignment and the select's cases are
		// statements of their own.
	default:
		evaluated = []ast.Node{s}
	}
	for _, n := range evaluated {
		if n == nil {
			continue
		}
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.SelectorExpr:
				l.checkAccess(n, f)
			}
			return true
		})
	}
}

// checkAccess reports sel when it selects a guarded field of a value x whose
// guard x.g is not must-held, outside a *Locked method, and x is not a
// fresh local of the body.
func (l *lattice) checkAccess(sel *ast.SelectorExpr, f fact) {
	s, ok := l.pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return
	}
	field, _ := s.Obj().(*types.Var)
	g, ok := l.guards[field]
	if !ok || l.locked || l.fresh(sel.X) {
		return
	}
	held := g.mutex
	if base := exprPath(sel.X); base != "" {
		held = base + "." + g.mutex
		if _, ok := f.held[held]; ok {
			return
		}
		if _, ok := f.held["R:"+held]; ok {
			return
		}
	}
	l.pass.Reportf(sel.Sel.Pos(),
		"%s accesses %s.%s without holding %s (guarded by %s); lock it on every path here, or name the method *Locked if its callers hold it",
		l.funcName, g.owner, field.Name(), held, g.mutex)
}

// fresh reports whether x is a variable declared in the walked body: a
// constructor's value, initialized before any other goroutine can see it.
func (l *lattice) fresh(x ast.Expr) bool {
	for {
		switch e := x.(type) {
		case *ast.ParenExpr:
			x = e.X
		case *ast.StarExpr:
			x = e.X
		case *ast.Ident:
			obj := l.pass.TypesInfo.ObjectOf(e)
			return obj != nil && obj.Pos() > l.body.Lbrace && obj.Pos() < l.body.Rbrace
		default:
			return false
		}
	}
}

// reportLeaks flags every lock held and not deferred at an exit.
func (l *lattice) reportLeaks(f fact, pos token.Pos, how string) {
	keys := make([]string, 0, len(f.held))
	for k := range f.held {
		if !f.deferred[k] {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		l.pass.Reportf(pos,
			"%s %s while holding %s (acquired at %s); unlock on every path or defer the unlock",
			l.funcName, how, displayKey(k), l.pos(f.held[k]))
	}
}

// recordOrder adds held→acquiring edges to the global order graph and
// reports any cycle the new edge closes.
func (l *lattice) recordOrder(f fact, sel *ast.SelectorExpr, pos token.Pos) {
	to := l.orderID(sel.X)
	if to == "" {
		return
	}
	for heldKey := range f.held {
		from := l.heldOrderID(heldKey)
		if from == "" || from == to {
			continue
		}
		if _, ok := orderEdges[from][to]; ok {
			continue
		}
		if path := orderPath(to, from); path != nil {
			l.pass.Reportf(pos,
				"lock order inversion: acquiring %s while holding %s, but the reverse order %s is established elsewhere (deadlock risk)",
				to, from, strings.Join(append(path, to), " -> "))
			continue // do not insert the inverted edge: keep the graph acyclic
		}
		if orderEdges[from] == nil {
			orderEdges[from] = map[string]token.Pos{}
		}
		orderEdges[from][to] = pos
	}
	// Remember how to map this function's held keys back to order IDs.
	if l.ids == nil {
		l.ids = map[string]string{}
	}
	key, _ := lockKey(sel.X, sel.Sel.Name)
	l.ids[key] = to
}

func (l *lattice) heldOrderID(heldKey string) string { return l.ids[heldKey] }

// orderPath returns a path from → … → to in the order graph, or nil.
func orderPath(from, to string) []string {
	seen := map[string]bool{from: true}
	type node struct {
		id   string
		path []string
	}
	queue := []node{{from, []string{from}}}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if n.id == to {
			return n.path
		}
		next := make([]string, 0, len(orderEdges[n.id]))
		for succ := range orderEdges[n.id] {
			next = append(next, succ)
		}
		sort.Strings(next)
		for _, succ := range next {
			if !seen[succ] {
				seen[succ] = true
				queue = append(queue, node{succ, append(append([]string{}, n.path...), succ)})
			}
		}
	}
	return nil
}

func (l *lattice) pos(p token.Pos) string {
	position := l.pass.Fset.Position(p)
	return fmt.Sprintf("line %d", position.Line)
}

// orderID resolves a locked expression to a stable cross-package identifier:
// "pkg.Type.field" for a mutex field of a named struct, "pkg.var" for a
// package-level mutex. Locals return "".
func (l *lattice) orderID(x ast.Expr) string {
	switch x := x.(type) {
	case *ast.SelectorExpr:
		t := l.pass.TypesInfo.TypeOf(x.X)
		if t == nil {
			return ""
		}
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok || named.Obj().Pkg() == nil {
			return ""
		}
		return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + x.Sel.Name
	case *ast.Ident:
		obj := l.pass.TypesInfo.ObjectOf(x)
		if obj == nil || obj.Pkg() == nil {
			return ""
		}
		if obj.Parent() == obj.Pkg().Scope() {
			return obj.Pkg().Path() + "." + obj.Name()
		}
	case *ast.ParenExpr:
		return l.orderID(x.X)
	}
	return ""
}

// lockKey builds the per-path identity of a locked expression; read locks
// get an "R:" prefix so the two lock modes balance independently.
func lockKey(x ast.Expr, method string) (string, bool) {
	path := exprPath(x)
	if path == "" {
		return "", false
	}
	if method == "RLock" || method == "RUnlock" {
		return "R:" + path, true
	}
	return path, true
}

func displayKey(k string) string {
	if rest, ok := strings.CutPrefix(k, "R:"); ok {
		return rest + " (read lock)"
	}
	return k
}

// exprPath flattens an ident/selector chain to its source path ("c.mu");
// anything more exotic (map index, function result) has no stable per-path
// identity and is skipped.
func exprPath(x ast.Expr) string {
	switch x := x.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		base := exprPath(x.X)
		if base == "" {
			return ""
		}
		return base + "." + x.Sel.Name
	case *ast.ParenExpr:
		return exprPath(x.X)
	case *ast.StarExpr:
		return exprPath(x.X)
	}
	return ""
}

// deferredReleases lists the lock keys a deferred call releases: a direct
// defer mu.Unlock(), or any Unlock/RUnlock inside a deferred func literal.
func deferredReleases(call *ast.CallExpr) []string {
	var out []string
	add := func(c *ast.CallExpr) {
		sel, ok := c.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Unlock" && sel.Sel.Name != "RUnlock") {
			return
		}
		if key, ok := lockKey(sel.X, sel.Sel.Name); ok {
			out = append(out, key)
		}
	}
	if fl, ok := call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(fl.Body, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok {
				add(c)
			}
			return true
		})
		return out
	}
	add(call)
	return out
}

// checkBody runs the fixpoint over one function body and then a single
// reporting walk with the converged block inputs. locked marks a *Locked
// method's own body.
func checkBody(pass *analysis.Pass, guards map[*types.Var]guard, name string, body *ast.BlockStmt, locked bool) {
	g := cfg.New(body)
	lat := &lattice{pass: pass, funcName: name, guards: guards, body: body, locked: locked}
	in := cfg.Forward[fact](g, lat)
	for _, b := range g.Reachable() {
		f, ok := in[b]
		if !ok {
			continue
		}
		lat.apply(b, f, true)
	}
	// The fall-off end: blocks flowing into Exit whose last statement is not
	// a return were already reported per-return above; anything else still
	// holding a lock leaks it off the end of the function.
	for _, b := range g.Exit.Preds {
		f, ok := in[b]
		if !ok {
			continue // unreachable
		}
		if n := len(b.Stmts); n > 0 {
			if _, isRet := b.Stmts[n-1].(*ast.ReturnStmt); isRet {
				continue
			}
		}
		out := lat.apply(b, f, false)
		lat.reportLeaks(out, body.Rbrace, "falls off the end")
	}
}
