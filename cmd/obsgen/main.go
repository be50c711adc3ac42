// Command obsgen generates the metric registry and its documentation.
//
// It scans every module package for internal/obs Registry factory calls
// (Counter, Gauge, Histogram and their Vec variants), collects the
// compile-time-constant family names with their types, labels, and help
// strings, and emits
//
//   - internal/obs/registry.go — the generated registry the kwslint
//     metricname analyzer checks declared names against,
//   - the metric table in DESIGN.md, rewritten in place between the
//     `begin/end generated metric table` HTML comment markers,
//   - internal/obs/flight/kinds_gen.go — the flight-event KindRegistry the
//     kwslint eventkind analyzer requires every Kind constant to appear in,
//     and
//   - internal/lint/hotpath/manifest_gen.go — the list of //kws:hotpath
//     functions, which the AllocsPerRun budget test in internal/core walks
//     so the static rule and the runtime budget pin each other.
//
// One scan feeds every output, which is the point: a metric cannot be
// registered without being documented, a flight kind cannot record without
// a registry row, a hot-path annotation cannot exist without a runtime
// budget, and kwslint refuses the stale state, so skipping
// `go generate ./internal/obs` fails the build rather than drifting.
//
// A non-constant metric name or help string is a fatal error here and a
// kwslint/metricname diagnostic in the analyzer; obsgen reports it with a
// position so either tool leads to the same fix.
package main

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/format"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"kwsdbg/internal/lint/hotpath"
	"kwsdbg/internal/lint/loadpkg"
)

// factoryType maps a Registry factory method to the metric type it creates
// and the argument index where labels start (-1 when unlabeled).
var factoryType = map[string]struct {
	typ        string
	labelsFrom int
}{
	"Counter":      {"counter", -1},
	"Gauge":        {"gauge", -1},
	"Histogram":    {"histogram", -1},
	"CounterVec":   {"counter", 2},
	"GaugeVec":     {"gauge", 2},
	"HistogramVec": {"histogram", 3},
}

var namePattern = regexp.MustCompile(`^kwsdbg_[a-z0-9_]+$`)

type metric struct {
	Name    string
	Type    string
	Labels  []string
	Help    string
	Package string
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "obsgen:", err)
		os.Exit(1)
	}
}

func run() error {
	root, err := moduleRoot()
	if err != nil {
		return err
	}
	set, err := loadpkg.Load(root, "./...")
	if err != nil {
		return err
	}
	metrics, err := collect(set)
	if err != nil {
		return err
	}
	if err := writeRegistry(filepath.Join(root, "internal", "obs", "registry.go"), metrics); err != nil {
		return err
	}
	if err := rewriteDesignTable(filepath.Join(root, "DESIGN.md"), metrics); err != nil {
		return err
	}
	kinds, err := collectKinds(set)
	if err != nil {
		return err
	}
	if err := writeKindRegistry(filepath.Join(root, "internal", "obs", "flight", "kinds_gen.go"), kinds); err != nil {
		return err
	}
	annotated := collectHotpath(set)
	if err := writeHotpathManifest(filepath.Join(root, "internal", "lint", "hotpath", "manifest_gen.go"), annotated); err != nil {
		return err
	}
	fmt.Printf("obsgen: %d metric families, %d flight kinds, %d hot-path functions\n",
		len(metrics), len(kinds), len(annotated))
	return nil
}

// moduleRoot walks up from the working directory to the nearest go.mod, so
// `go generate ./internal/obs` and a top-level invocation both work.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}

func collect(set *loadpkg.Set) ([]metric, error) {
	byName := make(map[string]*metric)
	for _, pkg := range set.Packages() {
		if pkg.ImportPath == "kwsdbg/internal/obs" {
			continue // the factories themselves, not declarations
		}
		var walkErr error
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if walkErr != nil {
					return false
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				m, ok, err := metricFromCall(pkg, call)
				if err != nil {
					walkErr = err
					return false
				}
				if !ok {
					return true
				}
				if prev, dup := byName[m.Name]; dup {
					if prev.Type != m.Type || strings.Join(prev.Labels, ",") != strings.Join(m.Labels, ",") {
						walkErr = fmt.Errorf("%s: metric %q redeclared as %s%v (first seen as %s%v in %s)",
							pkg.Fset.Position(call.Pos()), m.Name, m.Type, m.Labels, prev.Type, prev.Labels, prev.Package)
						return false
					}
					if !strings.Contains(prev.Package, m.Package) {
						prev.Package += ", " + m.Package
					}
					return true
				}
				byName[m.Name] = &m
				return true
			})
		}
		if walkErr != nil {
			return nil, walkErr
		}
	}
	out := make([]metric, 0, len(byName))
	for _, m := range byName {
		out = append(out, *m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// metricFromCall recognizes an obs Registry factory call and extracts its
// declaration. ok is false for unrelated calls; err is a hard failure
// (non-constant name/help on a real factory call).
func metricFromCall(pkg *loadpkg.Package, call *ast.CallExpr) (metric, bool, error) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return metric{}, false, nil
	}
	ft, ok := factoryType[sel.Sel.Name]
	if !ok || len(call.Args) < 2 {
		return metric{}, false, nil
	}
	fn, ok := pkg.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return metric{}, false, nil
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil || !isObsRegistry(recv.Type()) {
		return metric{}, false, nil
	}

	pos := pkg.Fset.Position(call.Pos())
	name, ok := constString(pkg, call.Args[0])
	if !ok {
		return metric{}, false, fmt.Errorf("%s: metric name is not a compile-time constant", pos)
	}
	if !namePattern.MatchString(name) {
		return metric{}, false, fmt.Errorf("%s: metric name %q does not match %s", pos, name, namePattern)
	}
	help, ok := constString(pkg, call.Args[1])
	if !ok {
		return metric{}, false, fmt.Errorf("%s: help string of %q is not a compile-time constant", pos, name)
	}
	var labels []string
	if ft.labelsFrom >= 0 {
		for i, arg := range call.Args[ft.labelsFrom:] {
			l, ok := constString(pkg, arg)
			if !ok {
				return metric{}, false, fmt.Errorf("%s: label %d of %q is not a compile-time constant", pos, i, name)
			}
			labels = append(labels, l)
		}
	}
	return metric{Name: name, Type: ft.typ, Labels: labels, Help: help, Package: pkg.ImportPath}, true, nil
}

func constString(pkg *loadpkg.Package, e ast.Expr) (string, bool) {
	tv, ok := pkg.TypesInfo.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

func isObsRegistry(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "kwsdbg/internal/obs" && obj.Name() == "Registry"
}

func writeRegistry(path string, metrics []metric) error {
	var b strings.Builder
	b.WriteString(`// Code generated by cmd/obsgen. DO NOT EDIT.
//
// This file is the single source of truth for the kwsdbg metric namespace:
// the kwslint metricname analyzer refuses metric names that are not listed
// here, and DESIGN.md's metric table is rendered from the same data.
// Regenerate with ` + "`go generate ./internal/obs`" + ` after adding or changing a
// metric declaration.
package obs

// RegisteredMetric describes one metric family declared somewhere in the
// module via a Registry factory call.
type RegisteredMetric struct {
	Name    string
	Type    string   // counter | gauge | histogram
	Labels  []string // nil when unlabeled
	Help    string
	Package string // declaring package import path
}

// Registered lists every metric family in the module, sorted by name.
var Registered = []RegisteredMetric{
`)
	for _, m := range metrics {
		labels := "nil"
		if len(m.Labels) > 0 {
			quoted := make([]string, len(m.Labels))
			for i, l := range m.Labels {
				quoted[i] = fmt.Sprintf("%q", l)
			}
			labels = "[]string{" + strings.Join(quoted, ", ") + "}"
		}
		fmt.Fprintf(&b, "\t{Name: %q, Type: %q, Labels: %s, Help: %q, Package: %q},\n",
			m.Name, m.Type, labels, m.Help, m.Package)
	}
	b.WriteString(`}

// RegisteredNames returns the set of declared metric family names.
func RegisteredNames() map[string]bool {
	m := make(map[string]bool, len(Registered))
	for _, r := range Registered {
		m[r.Name] = true
	}
	return m
}
`)
	src, err := format.Source([]byte(b.String()))
	if err != nil {
		return fmt.Errorf("formatting registry.go: %w", err)
	}
	return os.WriteFile(path, src, 0o644)
}

const (
	beginMarker = "<!-- begin generated metric table (cmd/obsgen) -->"
	endMarker   = "<!-- end generated metric table (cmd/obsgen) -->"
)

func rewriteDesignTable(path string, metrics []metric) error {
	doc, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	text := string(doc)
	begin := strings.Index(text, beginMarker)
	end := strings.Index(text, endMarker)
	if begin < 0 || end < 0 || end < begin {
		return fmt.Errorf("%s: missing %q / %q markers", path, beginMarker, endMarker)
	}

	var b strings.Builder
	b.WriteString(beginMarker)
	b.WriteString("\n| Metric | Type | Labels | Declared in | Meaning |\n|---|---|---|---|---|\n")
	for _, m := range metrics {
		labels := "—"
		if len(m.Labels) > 0 {
			quoted := make([]string, len(m.Labels))
			for i, l := range m.Labels {
				quoted[i] = "`" + l + "`"
			}
			labels = strings.Join(quoted, ", ")
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s | `%s` | %s |\n",
			m.Name, m.Type, labels, strings.TrimPrefix(m.Package, "kwsdbg/"), escapeCell(m.Help))
	}
	out := text[:begin] + b.String() + text[end:]
	return os.WriteFile(path, []byte(out), 0o644)
}

// escapeCell keeps help text table-safe: pipes would split the row.
func escapeCell(s string) string {
	return strings.ReplaceAll(strings.TrimSpace(s), "|", `\|`)
}

const flightPath = "kwsdbg/internal/obs/flight"

// kindEntry is one flight Kind constant with its wire name and doc line.
type kindEntry struct {
	Const string // Go constant name, e.g. "SQLExec"
	Name  string // stable wire name from kindNames, e.g. "sql_exec"
	Doc   string // declaration comment, collapsed to one line
}

// collectKinds reads the flight package's Kind enum and kindNames table.
func collectKinds(set *loadpkg.Set) ([]kindEntry, error) {
	var flight *loadpkg.Package
	for _, pkg := range set.Packages() {
		if pkg.ImportPath == flightPath {
			flight = pkg
			break
		}
	}
	if flight == nil {
		return nil, fmt.Errorf("package %s not found in module", flightPath)
	}

	names := kindWireNames(flight)
	var out []kindEntry
	for _, f := range flight.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, id := range vs.Names {
					c, ok := flight.TypesInfo.Defs[id].(*types.Const)
					if !ok || !c.Exported() {
						continue
					}
					named, ok := c.Type().(*types.Named)
					if !ok || named.Obj().Name() != "Kind" {
						continue
					}
					wire, ok := names[id.Name]
					if !ok {
						return nil, fmt.Errorf("%s: flight Kind %s has no kindNames entry",
							flight.Fset.Position(id.Pos()), id.Name)
					}
					out = append(out, kindEntry{
						Const: id.Name,
						Name:  wire,
						Doc:   collapseDoc(vs.Doc, id.Name),
					})
				}
			}
		}
	}
	return out, nil
}

// kindWireNames maps Kind constant names to their wire strings by reading
// the kindNames composite literal.
func kindWireNames(pkg *loadpkg.Package) map[string]string {
	out := map[string]string{}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			vs, ok := n.(*ast.ValueSpec)
			if !ok {
				return true
			}
			for i, id := range vs.Names {
				if id.Name != "kindNames" || i >= len(vs.Values) {
					continue
				}
				cl, ok := vs.Values[i].(*ast.CompositeLit)
				if !ok {
					continue
				}
				for _, el := range cl.Elts {
					kv, ok := el.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					key, ok := kv.Key.(*ast.Ident)
					if !ok {
						continue
					}
					if s, ok := constString(pkg, kv.Value); ok {
						out[key.Name] = s
					}
				}
			}
			return true
		})
	}
	return out
}

// collapseDoc flattens a declaration comment to one line, dropping the
// leading "Name:" convention the enum comments use.
func collapseDoc(cg *ast.CommentGroup, name string) string {
	text := strings.Join(strings.Fields(cg.Text()), " ")
	text = strings.TrimPrefix(text, name+":")
	return strings.TrimSpace(text)
}

func writeKindRegistry(path string, kinds []kindEntry) error {
	var b strings.Builder
	b.WriteString(`// Code generated by cmd/obsgen. DO NOT EDIT.
//
// KindRegistry is the machine-readable index of the flight recorder's event
// schema: one row per Kind constant, in enum order, with the stable wire
// name String() emits. The kwslint eventkind analyzer requires every Kind
// constant to appear here, so a new event kind cannot ship without
// regenerating (` + "`go generate ./internal/obs`" + `) — which also refreshes the
// metric registry and hot-path manifest from the same scan.
package flight

// RegisteredKind describes one probe-lifecycle event kind.
type RegisteredKind struct {
	Kind Kind
	Name string // stable wire name, as emitted by Kind.String
	Doc  string // declaration comment, one line
}

// KindRegistry lists every event kind, in enum order.
var KindRegistry = []RegisteredKind{
`)
	for _, k := range kinds {
		fmt.Fprintf(&b, "\t{%s, %q, %q},\n", k.Const, k.Name, k.Doc)
	}
	b.WriteString("}\n")
	src, err := format.Source([]byte(b.String()))
	if err != nil {
		return fmt.Errorf("formatting kinds_gen.go: %w", err)
	}
	return os.WriteFile(path, src, 0o644)
}

// collectHotpath lists every //kws:hotpath function in the module as
// "importpath.Func" / "importpath.(*Recv).Method", sorted.
func collectHotpath(set *loadpkg.Set) []string {
	var out []string
	for _, pkg := range set.Packages() {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !hotpath.Annotated(fd) {
					continue
				}
				out = append(out, pkg.ImportPath+"."+funcName(fd))
			}
		}
	}
	sort.Strings(out)
	return out
}

// funcName renders a declaration's name with its receiver, go doc style.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if st, ok := t.(*ast.StarExpr); ok {
		if id, ok := st.X.(*ast.Ident); ok {
			return "(*" + id.Name + ")." + fd.Name.Name
		}
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

func writeHotpathManifest(path string, annotated []string) error {
	var b strings.Builder
	b.WriteString(`// Code generated by cmd/obsgen. DO NOT EDIT.
//
// Manifest is the module's //kws:hotpath inventory. The static analyzer
// (this package) forbids allocation-prone constructs inside these
// functions; the AllocsPerRun budget test in internal/core walks this list
// to require a runtime allocation budget for each entry. Removing an
// annotation to silence the lint also removes the function from the
// runtime budget — visibly, in this generated diff.
package hotpath

// Manifest lists every //kws:hotpath function, "importpath.Func" or
// "importpath.(*Recv).Method", sorted.
var Manifest = []string{
`)
	for _, name := range annotated {
		fmt.Fprintf(&b, "\t%q,\n", name)
	}
	b.WriteString("}\n")
	src, err := format.Source([]byte(b.String()))
	if err != nil {
		return fmt.Errorf("formatting manifest_gen.go: %w", err)
	}
	return os.WriteFile(path, src, 0o644)
}
