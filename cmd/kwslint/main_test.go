package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestList prints one line per analyzer of the suite, in display order.
func TestList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("kwslint -list exited %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n")
	if len(lines) != len(suite) || len(suite) != 8 {
		t.Fatalf("kwslint -list printed %d lines for %d analyzers, want 8:\n%s", len(lines), len(suite), stdout.String())
	}
	for i, a := range suite {
		if name := strings.Fields(lines[i])[0]; name != a.Check() {
			t.Errorf("line %d names %q, want %q", i+1, name, a.Check())
		}
	}
}

// TestUnknownWaiverReported requires a directive naming a check outside the
// full suite to be reported under kwslint/directive, whichever analyzers
// -run selects, and a directive naming a check of the suite to pass.
func TestUnknownWaiverReported(t *testing.T) {
	want := []string{
		`testdata/waiver/waiver.go:8:1: kwslint/directive: lint:ignore names "kwslint/lockcheck", which no kwslint analyzer reports`,
		`testdata/waiver/waiver.go:11:1: kwslint/directive: lint:ignore names "kwslint/nosuch", which no kwslint analyzer reports`,
	}
	for _, only := range []string{"", "errwrap", "lockflow,hotpath"} {
		args := []string{"./testdata/waiver"}
		if only != "" {
			args = append([]string{"-run", only}, args...)
		}
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 1 {
			t.Fatalf("-run %q: exit %d, want 1\nstdout:\n%s\nstderr:\n%s", only, code, stdout.String(), stderr.String())
		}
		lines := strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n")
		if len(lines) != len(want) {
			t.Fatalf("-run %q: got %d diagnostics, want %d:\n%s", only, len(lines), len(want), stdout.String())
		}
		for i, w := range want {
			if !strings.HasPrefix(lines[i], w) {
				t.Errorf("-run %q: diagnostic %d is\n  %s\nwant prefix\n  %s", only, i+1, lines[i], w)
			}
		}
	}
}
