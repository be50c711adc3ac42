// Package determinism enforces the repo's core correctness invariant at
// build time: the lattice pipeline's output is a pure function of the data.
//
// Phase 3 must classify the same MTNs and report the same MPANs regardless
// of worker count, probe path, or cache state — the property PRs 2–4 defend
// with byte-identical-output tests after the fact. Two bug classes break it
// silently:
//
//  1. Wall-clock or randomness reads in an output path. In the scoped
//     packages, calls to time.Now / time.Since (and friends) and any use of
//     math/rand are forbidden; timing measurement goes through the
//     sanctioned kwsdbg/internal/clock seam instead.
//  2. Map iteration order leaking into ordered output. A `range` over a map
//     whose values flow into a slice (without a sort.* / slices.Sort over
//     that slice before it is used), into a string or builder, or into a
//     return value, produces output that varies run to run — exactly the
//     bug class the byte-identical property tests exist to catch.
//
// Commutative map-range bodies (writes into another map, counter updates,
// deletes) are allowed. Waivers use //lint:ignore kwslint/determinism with
// a reason.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"kwsdbg/internal/lint/analysis"
)

// Analyzer is the determinism checker.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc: "forbid wall-clock/randomness reads and map-iteration-order leaks " +
		"in the output-affecting packages (core, lattice, report, sqltext, obs, " +
		"probecache, invidx, vervec, storage)",
	Run: run,
}

// Scope reports whether a package is output-affecting and therefore
// subject to the determinism invariant. Tests override it to point the
// analyzer at fixture packages. obs and obs/flight are scoped because they
// run inside probe loops: a clock read there would both perturb the traces
// they exist to measure and tempt timing into the flight recorder's events,
// which must stay a pure function of the run (timing enters an Event only as
// the oracle's already-measured SQL latency). probecache is scoped because
// verdict expiry decides probe outcomes: its TTL deadline must come through
// the clock seam, so tests (and the byte-identity property suite) can pin it.
// invidx is scoped because its posting lists feed the engine's candidate
// lists, which decide what every prepared probe scans: its lookup timing
// must go through the clock seam and its posting lists must never inherit
// map order. vervec is scoped because version stamps decide verdict
// staleness, and storage because snapshot contents and index posting lists
// feed every probe. engine and server are deliberately out of scope: their
// time.Now / timer reads are service-edge measurements (retry backoff,
// admission deadlines, HTTP latency) — wall-clock there is the feature, not
// a leak.
var Scope = func(pkgPath string) bool {
	switch pkgPath {
	case "kwsdbg/internal/core", "kwsdbg/internal/lattice",
		"kwsdbg/internal/report", "kwsdbg/internal/sqltext",
		"kwsdbg/internal/obs", "kwsdbg/internal/obs/flight",
		"kwsdbg/internal/probecache", "kwsdbg/internal/invidx",
		"kwsdbg/internal/vervec", "kwsdbg/internal/storage":
		return true
	}
	return false
}

// forbiddenTime is the set of time-package functions whose results depend
// on when they run. time.Duration arithmetic and type references stay legal.
var forbiddenTime = map[string]bool{
	"Now": true, "Since": true, "Until": true, "After": true, "Tick": true,
	"Sleep": true, "NewTimer": true, "NewTicker": true, "AfterFunc": true,
}

func run(pass *analysis.Pass) error {
	if !Scope(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		checkImports(pass, f)
	}
	pass.Inspect(func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			checkTimeUse(pass, sel)
		}
		return true
	})
	checkMapRanges(pass)
	return nil
}

func checkImports(pass *analysis.Pass, f *ast.File) {
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		if path == "math/rand" || path == "math/rand/v2" {
			pass.Reportf(imp.Pos(),
				"import of %s in output-affecting package %s: randomness makes the pipeline's output depend on more than the data",
				path, pass.Pkg.Path())
		}
	}
}

// checkTimeUse flags any reference to a forbidden time function — calls
// and bare value uses alike, so `f := time.Now` cannot smuggle one in.
func checkTimeUse(pass *analysis.Pass, sel *ast.SelectorExpr) {
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" || !forbiddenTime[fn.Name()] {
		return
	}
	pass.Reportf(sel.Pos(),
		"use of time.%s in output-affecting package %s: route timing measurement through kwsdbg/internal/clock",
		fn.Name(), pass.Pkg.Path())
}

// checkMapRanges walks every statement list so a map-range can see the
// statements that follow it in its enclosing block (where the sort that
// launders iteration order must appear).
func checkMapRanges(pass *analysis.Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var list []ast.Stmt
			switch b := n.(type) {
			case *ast.BlockStmt:
				list = b.List
			case *ast.CaseClause:
				list = b.Body
			case *ast.CommClause:
				list = b.Body
			default:
				return true
			}
			for i, st := range list {
				rng, ok := st.(*ast.RangeStmt)
				if !ok {
					continue
				}
				if _, isMap := pass.TypesInfo.TypeOf(rng.X).Underlying().(*types.Map); !isMap {
					continue
				}
				checkOneRange(pass, rng, list[i+1:])
			}
			return true
		})
	}
}

// checkOneRange classifies how a map-range body uses the iteration and
// flags order-dependent flows. rest is the tail of the enclosing block
// after the range statement, searched for a laundering sort.
func checkOneRange(pass *analysis.Pass, rng *ast.RangeStmt, rest []ast.Stmt) {
	// sinks are the outer slice variables the body appends to; each must be
	// sorted after the loop.
	sinks := map[*types.Var]token.Pos{}

	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			pass.Reportf(n.Pos(),
				"return inside a map range: iteration order decides the result; iterate a sorted key slice instead")
		case *ast.AssignStmt:
			checkAssign(pass, n, rng, sinks)
		case *ast.CallExpr:
			checkBodyCall(pass, n)
		}
		return true
	})

	for v, pos := range sinks {
		if !sortedAfter(pass, v, rest) {
			pass.Reportf(pos,
				"map iteration order flows into slice %q with no sort.* / slices.Sort before use; sort it after the loop or iterate sorted keys",
				v.Name())
		}
	}
}

// checkAssign flags string accumulation and records slice appends.
func checkAssign(pass *analysis.Pass, as *ast.AssignStmt, rng *ast.RangeStmt, sinks map[*types.Var]token.Pos) {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return
	}
	lhs, rhs := as.Lhs[0], as.Rhs[0]
	lhsType := pass.TypesInfo.TypeOf(lhs)

	// s += k, or s = s + k, where s is a string declared outside the loop.
	if isString(lhsType) && !declaredWithin(pass, lhs, rng) {
		if as.Tok == token.ADD_ASSIGN {
			pass.Reportf(as.Pos(), "map iteration order flows into string %s; iterate sorted keys", exprText(lhs))
			return
		}
		if bin, ok := rhs.(*ast.BinaryExpr); ok && as.Tok == token.ASSIGN && bin.Op == token.ADD && mentions(pass, bin, lhs) {
			pass.Reportf(as.Pos(), "map iteration order flows into string %s; iterate sorted keys", exprText(lhs))
			return
		}
	}

	// x = append(x, ...) — record the sink when x is an identifier declared
	// outside the loop; flag un-trackable destinations outright.
	call, ok := rhs.(*ast.CallExpr)
	if !ok || !isBuiltinAppend(pass, call) {
		return
	}
	id, ok := lhs.(*ast.Ident)
	if !ok {
		pass.Reportf(as.Pos(),
			"map iteration order flows into %s via append; collect into a local slice and sort it", exprText(lhs))
		return
	}
	v, ok := pass.TypesInfo.ObjectOf(id).(*types.Var)
	if !ok || declaredWithin(pass, id, rng) {
		return // loop-local accumulation stays inside the loop's own scope
	}
	if _, seen := sinks[v]; !seen {
		sinks[v] = as.Pos()
	}
}

// checkBodyCall flags writes into builders/buffers/writers inside the loop.
func checkBodyCall(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	name := sel.Sel.Name

	// fmt.Fprint* — ordered output to a writer.
	if fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil &&
		fn.Pkg().Path() == "fmt" && strings.HasPrefix(name, "Fprint") {
		pass.Reportf(call.Pos(),
			"map iteration order flows into fmt.%s output; iterate sorted keys", name)
		return
	}

	// strings.Builder / bytes.Buffer writes.
	switch name {
	case "WriteString", "WriteByte", "WriteRune", "Write":
	default:
		return
	}
	recv := pass.TypesInfo.TypeOf(sel.X)
	if recv == nil {
		return
	}
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return
	}
	full := named.Obj().Pkg().Path() + "." + named.Obj().Name()
	if full == "strings.Builder" || full == "bytes.Buffer" {
		pass.Reportf(call.Pos(),
			"map iteration order flows into %s via %s; iterate sorted keys", full, name)
	}
}

// sortedAfter reports whether any statement after the loop both calls into
// package sort or slices and mentions v.
func sortedAfter(pass *analysis.Pass, v *types.Var, rest []ast.Stmt) bool {
	for _, st := range rest {
		sortCall, mentionsV := false, false
		ast.Inspect(st, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if fn, ok := pass.TypesInfo.Uses[n.Sel].(*types.Func); ok && fn.Pkg() != nil {
					if p := fn.Pkg().Path(); p == "sort" || p == "slices" {
						sortCall = true
					}
				}
			case *ast.Ident:
				if pass.TypesInfo.ObjectOf(n) == v {
					mentionsV = true
				}
			}
			return true
		})
		if sortCall && mentionsV {
			return true
		}
	}
	return false
}

func isString(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// declaredWithin reports whether the object behind e is declared inside the
// range statement (loop-local state is invisible outside the iteration).
func declaredWithin(pass *analysis.Pass, e ast.Expr, rng *ast.RangeStmt) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	obj := pass.TypesInfo.ObjectOf(id)
	return obj != nil && obj.Pos() >= rng.Pos() && obj.Pos() <= rng.End()
}

func isBuiltinAppend(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// mentions reports whether root's subtree uses the same object as target.
func mentions(pass *analysis.Pass, root ast.Node, target ast.Expr) bool {
	tid, ok := target.(*ast.Ident)
	if !ok {
		return false
	}
	tobj := pass.TypesInfo.ObjectOf(tid)
	if tobj == nil {
		return false
	}
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == tobj {
			found = true
		}
		return !found
	})
	return found
}

// exprText renders a short expression for diagnostics.
func exprText(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprText(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprText(e.X) + "[...]"
	case *ast.StarExpr:
		return "*" + exprText(e.X)
	default:
		return "expression"
	}
}
