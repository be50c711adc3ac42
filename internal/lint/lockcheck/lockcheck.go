// Package lockcheck enforces `// guarded by <mutex>` field annotations.
//
// The concurrency-sensitive state in this repo — the probe cache's LRU
// list+map, the plan caches, the governor's trip reason — is documented
// with a comment naming the mutex that guards each field. The mutex is a
// sibling field (`guarded by mu`) or a mutex field of the struct a sibling
// pointer field refers to (`guarded by rec.mu`: a flight log's state is
// guarded by its recorder's mutex). This analyzer turns the comment into a
// checked contract: an annotated field may only be read or written
//
//   - inside a method of the owning struct whose body acquires the named
//     mutex (recv.mu.Lock / recv.mu.RLock, or recv.rec.mu.Lock /
//     recv.rec.mu.RLock, usually with a deferred Unlock), or
//   - inside a method whose name ends in "Locked" — the repo's convention
//     for helpers whose callers hold the lock, or
//   - on a struct-typed variable created locally inside a plain function
//     (constructors initialize fields before the value is shared).
//
// This is a lexical approximation, not an escape analysis: it will not
// catch a lock released early or an access to a *different* instance's
// field under the receiver's lock. It does catch the common regression —
// a new method or free function touching guarded state with no locking at
// all — which is the bug class code review keeps having to re-find.
package lockcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"kwsdbg/internal/lint/analysis"
)

// Analyzer is the guarded-field checker.
var Analyzer = &analysis.Analyzer{
	Name: "lockcheck",
	Doc: "fields annotated `// guarded by mu` may only be accessed while " +
		"holding the named mutex (or from *Locked helpers / constructors)",
	Run: run,
}

// guardPattern extracts the guard from an annotation comment: a mutex field
// name, or a pointer field name and the mutex field it leads to.
var guardPattern = regexp.MustCompile(`(?i)\bguarded by (\w+(?:\.\w+)?)\b`)

// guard records that a field is protected by a named mutex: mutex is the
// selector path from a value of the struct to it ("mu" or "rec.mu").
type guard struct {
	structType *types.Named
	mutex      string
}

func run(pass *analysis.Pass) error {
	guards := collectGuards(pass)
	if len(guards) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd, guards)
		}
	}
	return nil
}

// collectGuards finds annotated fields in this package's struct types and
// validates that the named guard is a sync.Mutex/RWMutex sibling field, or a
// sync.Mutex/RWMutex field of the struct a sibling pointer field points to.
func collectGuards(pass *analysis.Pass) map[*types.Var]guard {
	guards := make(map[*types.Var]guard)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			named, ok := pass.TypesInfo.Defs[ts.Name].Type().(*types.Named)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				mutex, ok := guardAnnotation(field)
				if !ok {
					continue
				}
				if ptr, mu, ok := strings.Cut(mutex, "."); ok {
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
						guards[v] = guard{structType: named, mutex: mutex}
					}
				}
			}
			return true
		})
	}
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

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl, guards map[*types.Var]guard) {
	recvType, recvObj := receiver(pass, fd)
	for _, sel := range guardedSelections(pass, fd, guards) {
		g := guards[sel.field]
		switch {
		case recvType == g.structType:
			if strings.HasSuffix(fd.Name.Name, "Locked") {
				continue // caller holds the lock by convention
			}
			if locksMutex(pass, fd.Body, recvObj, g.mutex) {
				continue
			}
			pass.Reportf(sel.pos,
				"%s accesses %s.%s without acquiring %s (no %s.Lock/RLock in this method; name it *Locked if callers hold the lock)",
				fd.Name.Name, g.structType.Obj().Name(), sel.field.Name(), g.mutex, g.mutex)
		case localBase(pass, fd, sel.base):
			// Freshly constructed value inside a plain function: fields are
			// initialized before the value can be shared.
		default:
			pass.Reportf(sel.pos,
				"guarded field %s.%s accessed outside a method of %s; only its methods may touch it (guarded by %s)",
				g.structType.Obj().Name(), sel.field.Name(), g.structType.Obj().Name(), g.mutex)
		}
	}
}

// selection is one access to a guarded field.
type selection struct {
	pos   token.Pos
	field *types.Var
	base  ast.Expr
}

// guardedSelections finds every guarded-field access in fd.
func guardedSelections(pass *analysis.Pass, fd *ast.FuncDecl, guards map[*types.Var]guard) []selection {
	var out []selection
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		s, ok := pass.TypesInfo.Selections[sel]
		if !ok || s.Kind() != types.FieldVal {
			return true
		}
		v, ok := s.Obj().(*types.Var)
		if !ok {
			return true
		}
		if _, guarded := guards[v]; guarded {
			out = append(out, selection{pos: sel.Sel.Pos(), field: v, base: sel.X})
		}
		return true
	})
	return out
}

// receiver resolves fd's receiver named type (pointer receivers
// dereferenced) and object.
func receiver(pass *analysis.Pass, fd *ast.FuncDecl) (*types.Named, types.Object) {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return nil, nil
	}
	field := fd.Recv.List[0]
	t := pass.TypesInfo.TypeOf(field.Type)
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	var obj types.Object
	if len(field.Names) > 0 {
		obj = pass.TypesInfo.Defs[field.Names[0]]
	}
	return named, obj
}

// locksMutex reports whether body contains recv.<mutex>.Lock() or .RLock(),
// where mutex is a selector path such as "mu" or "rec.mu".
func locksMutex(pass *analysis.Pass, body *ast.BlockStmt, recvObj types.Object, mutex string) bool {
	if recvObj == nil {
		return false
	}
	path := strings.Split(mutex, ".")
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		outer, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (outer.Sel.Name != "Lock" && outer.Sel.Name != "RLock") {
			return true
		}
		if selectsPath(pass, outer.X, recvObj, path) {
			found = true
			return false
		}
		return true
	})
	return found
}

// selectsPath reports whether e is recv.path[0].path[1]... .
func selectsPath(pass *analysis.Pass, e ast.Expr, recvObj types.Object, path []string) bool {
	for i := len(path) - 1; i >= 0; i-- {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != path[i] {
			return false
		}
		e = sel.X
	}
	id, ok := e.(*ast.Ident)
	return ok && pass.TypesInfo.ObjectOf(id) == recvObj
}

// localBase reports whether the accessed value is a variable declared in
// fd's body (a constructor's fresh value, not yet shared).
func localBase(pass *analysis.Pass, fd *ast.FuncDecl, base ast.Expr) bool {
	for {
		switch b := base.(type) {
		case *ast.ParenExpr:
			base = b.X
		case *ast.StarExpr:
			base = b.X
		case *ast.Ident:
			obj := pass.TypesInfo.ObjectOf(b)
			return obj != nil && obj.Pos() > fd.Body.Lbrace && obj.Pos() < fd.Body.Rbrace
		default:
			return false
		}
	}
}
