package ignore

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"kwsdbg/internal/lint/analysis"
)

func parseSrc(t *testing.T, src string) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fix.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return fset, []*ast.File{f}
}

func TestParseDirectives(t *testing.T) {
	fset, files := parseSrc(t, `package p

//lint:ignore kwslint/errwrap rendering only
var a = 1

//lint:ignore kwslint/errwrap,kwslint/ctxflow shared waiver for both checks
var b = 2

//lint:ignore kwslint/lockflow
var c = 3

//lint:ignore
var d = 4
`)
	dirs, malformed := Parse(fset, files)
	if len(dirs) != 2 {
		t.Fatalf("got %d well-formed directives, want 2: %+v", len(dirs), dirs)
	}
	if got := strings.Join(dirs[1].Checks, "+"); got != "kwslint/errwrap+kwslint/ctxflow" {
		t.Errorf("multi-check directive parsed as %q", got)
	}
	if dirs[0].Reason != "rendering only" {
		t.Errorf("reason = %q, want %q", dirs[0].Reason, "rendering only")
	}
	if len(malformed) != 2 {
		t.Fatalf("got %d malformed diagnostics, want 2 (empty reason, missing checks): %+v", len(malformed), malformed)
	}
	for _, d := range malformed {
		if d.Check != DirectiveCheck {
			t.Errorf("malformed directive reported under %q, want %q", d.Check, DirectiveCheck)
		}
	}
}

func TestFilterCoversLineAndLineBelow(t *testing.T) {
	fset, files := parseSrc(t, `package p

//lint:ignore kwslint/errwrap waived for the fixture
var a = 1
var b = 2
`)
	dirs, malformed := Parse(fset, files)
	if len(malformed) != 0 || len(dirs) != 1 {
		t.Fatalf("parse: dirs=%d malformed=%d", len(dirs), len(malformed))
	}
	file := fset.File(files[0].Pos())
	at := func(line int) token.Pos { return file.LineStart(line) }

	diags := []analysis.Diagnostic{
		{Pos: at(3), Check: "kwslint/errwrap", Message: "on the directive line"},
		{Pos: at(4), Check: "kwslint/errwrap", Message: "on the line below"},
		{Pos: at(5), Check: "kwslint/errwrap", Message: "two lines below"},
		{Pos: at(4), Check: "kwslint/ctxflow", Message: "different check"},
	}
	kept := Filter(fset, dirs, diags)
	if len(kept) != 2 {
		t.Fatalf("kept %d diagnostics, want 2: %+v", len(kept), kept)
	}
	if kept[0].Message != "two lines below" || kept[1].Message != "different check" {
		t.Errorf("wrong diagnostics survived: %+v", kept)
	}
}

// TestEmptyReasonSuppressesNothing is the contract the issue calls out: a
// directive without a reason is reported and filters no diagnostics.
func TestEmptyReasonSuppressesNothing(t *testing.T) {
	fset, files := parseSrc(t, `package p

//lint:ignore kwslint/errwrap
var a = 1
`)
	dirs, malformed := Parse(fset, files)
	if len(dirs) != 0 {
		t.Fatalf("reason-less directive parsed as well-formed: %+v", dirs)
	}
	if len(malformed) != 1 || !strings.Contains(malformed[0].Message, "non-empty reason") {
		t.Fatalf("malformed = %+v, want one non-empty-reason diagnostic", malformed)
	}
	file := fset.File(files[0].Pos())
	diags := []analysis.Diagnostic{{Pos: file.LineStart(4), Check: "kwslint/errwrap", Message: "still reported"}}
	if kept := Filter(fset, dirs, diags); len(kept) != 1 {
		t.Fatalf("reason-less directive suppressed a diagnostic: kept=%+v", kept)
	}
}
