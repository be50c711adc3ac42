// Package hotpath enforces the allocation contract of `//kws:hotpath`
// functions.
//
// PR 8 found CounterVec.With burning ~1.5µs per warm probe — by manual
// profiling, after the regression shipped. The contract is now explicit: a
// function whose doc comment carries the `//kws:hotpath` directive (oracle
// IsAlive, flight Log.Emit, probecache Lookup, the engine's join kernel) is
// on the per-probe path and must stay allocation-free. Inside such a
// function this analyzer forbids
//
//   - calls into fmt (Sprintf and friends allocate; formatting in an error
//     return is exempt — the error path is cold by definition),
//   - any reference to reflect,
//   - resolving a metric child through *Vec.With (pre-resolve it at
//     construction, the way obs/flight and probecache do),
//   - building strings inside loops (+= / s = s + x allocates per
//     iteration; loop membership comes from the cfg engine's back-edge
//     analysis),
//   - ranging over a map at all: iteration order is random, which is both
//     an allocation (hidden iterator) and a determinism leak.
//
// The static rule is pinned from the other side by a testing.AllocsPerRun
// budget test over the same annotation manifest (cmd/obsgen emits
// internal/lint/hotpath/manifest_gen.go), so removing the annotation to
// silence the lint also drops the function from the runtime budget — a diff
// a reviewer cannot miss.
package hotpath

import (
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"

	"kwsdbg/internal/lint/analysis"
	"kwsdbg/internal/lint/cfg"
)

// Directive is the doc-comment marker that opts a function into the
// hot-path contract.
const Directive = "//kws:hotpath"

// Analyzer is the hot-path allocation-discipline checker.
var Analyzer = &analysis.Analyzer{
	Name: "hotpath",
	Doc: "functions annotated //kws:hotpath may not call fmt (outside error " +
		"returns), use reflect, resolve *Vec.With children, build strings in " +
		"loops, or range over maps",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !Annotated(fd) {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

// Annotated reports whether fd's doc comment carries the hotpath directive.
// Directive-style comments are invisible to CommentGroup.Text, so the raw
// list is scanned.
func Annotated(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == Directive || strings.HasPrefix(c.Text, Directive+" ") {
			return true
		}
	}
	return false
}

// span is a half-open source range; returnSpans marks return statements,
// whose fmt calls are cold error exits.
type span struct{ lo, hi token.Pos }

type spans []span

func (s spans) contains(p token.Pos) bool {
	for _, sp := range s {
		if sp.lo <= p && p < sp.hi {
			return true
		}
	}
	return false
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	name := fd.Name.Name

	var returnSpans spans
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if r, ok := n.(*ast.ReturnStmt); ok {
			returnSpans = append(returnSpans, span{r.Pos(), r.End()})
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			switch packageOf(pass, n) {
			case "fmt":
				if !returnSpans.contains(n.Pos()) {
					pass.Reportf(n.Pos(),
						"%s is //kws:hotpath but calls fmt.%s outside an error return; format off the hot path",
						name, n.Sel.Name)
				}
			case "reflect":
				pass.Reportf(n.Pos(),
					"%s is //kws:hotpath but uses reflect.%s", name, n.Sel.Name)
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "With" && isObsVec(pass, sel.X) {
				pass.Reportf(n.Pos(),
					"%s is //kws:hotpath but resolves a metric child with %s.With; pre-resolve it at construction",
					name, exprText(pass.Fset, sel.X))
			}
		case *ast.RangeStmt:
			if t := pass.TypesInfo.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Map); ok {
					pass.Reportf(n.Pos(),
						"%s is //kws:hotpath but ranges over a map (random order, hidden iterator allocation)", name)
				}
			}
		}
		return true
	})

	checkLoopStringBuild(pass, name, fd.Body)
}

// packageOf returns the package name when sel is a qualified reference
// (fmt.Sprintf, reflect.ValueOf), else "".
func packageOf(pass *analysis.Pass, sel *ast.SelectorExpr) string {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	if pn, ok := pass.TypesInfo.ObjectOf(id).(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}

// isObsVec reports whether x is one of the obs metric-vector types, whose
// With resolves a child through a lock and a label-key build.
func isObsVec(pass *analysis.Pass, x ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(x)
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return strings.HasSuffix(named.Obj().Name(), "Vec") &&
		strings.HasSuffix(named.Obj().Pkg().Path(), "internal/obs")
}

// checkLoopStringBuild builds the function's CFG and flags string
// concatenation in blocks inside a loop.
func checkLoopStringBuild(pass *analysis.Pass, name string, body *ast.BlockStmt) {
	g := cfg.New(body)
	loops := g.LoopBlocks()
	for _, b := range g.Reachable() {
		if !loops[b] {
			continue
		}
		for _, s := range b.Stmts {
			as, ok := s.(*ast.AssignStmt)
			if !ok {
				continue
			}
			if stringConcat(pass, as) {
				pass.Reportf(as.Pos(),
					"%s is //kws:hotpath but builds a string inside a loop; use a preallocated buffer off the hot path",
					name)
			}
		}
	}
}

// stringConcat matches s += x and s = s + x on string-typed operands.
func stringConcat(pass *analysis.Pass, as *ast.AssignStmt) bool {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	t := pass.TypesInfo.TypeOf(as.Lhs[0])
	if t == nil {
		return false
	}
	basic, ok := t.Underlying().(*types.Basic)
	if !ok || basic.Kind() != types.String {
		return false
	}
	switch as.Tok {
	case token.ADD_ASSIGN:
		return true
	case token.ASSIGN:
		bin, ok := as.Rhs[0].(*ast.BinaryExpr)
		return ok && bin.Op == token.ADD && sameExprText(pass.Fset, bin.X, as.Lhs[0])
	}
	return false
}

func sameExprText(fset *token.FileSet, a, b ast.Expr) bool {
	return exprText(fset, a) == exprText(fset, b)
}

func exprText(fset *token.FileSet, e ast.Expr) string {
	var sb strings.Builder
	if err := printer.Fprint(&sb, fset, e); err != nil {
		return ""
	}
	return sb.String()
}
