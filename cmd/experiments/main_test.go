package main

import (
	"strings"
	"testing"
)

func TestRunAllExperimentsSmall(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, 0.01, 1, 3, "", "", false); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := sb.String()
	for _, want := range []string{
		"tab2", "fig9a", "fig9b", "phase12", "fig10", "fig11", "fig12",
		"tab3", "tab4", "fig13", "fig14", "rn-coverage", "online-cn", "ablation-pa", "ablation-skew", "ablation-copies", "metrics",
	} {
		if !strings.Contains(out, "== "+want) {
			t.Errorf("output missing experiment %s", want)
		}
	}
	if strings.Contains(out, "== fig15") {
		t.Error("fig15 must require -maxlevel 7")
	}
	// Serving-stack performance belongs to kwsbench; the paper harness
	// prints no timing sweeps of its own.
	for _, gone := range []string{"probe", "degrade", "plan", "bitset", "flight"} {
		if strings.Contains(out, "== "+gone+":") {
			t.Errorf("output still carries the retired %s sweep", gone)
		}
	}
}

func TestRunOnlySelection(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, 0.01, 1, 3, "tab2, fig13", "", false); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := sb.String()
	if !strings.Contains(out, "== tab2") || !strings.Contains(out, "== fig13") {
		t.Errorf("selected experiments missing:\n%s", out)
	}
	if strings.Contains(out, "== fig11") {
		t.Error("unselected experiment ran")
	}
}

func TestRunValidation(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, 0.01, 1, 2, "", "", false); err == nil {
		t.Error("maxlevel 2 accepted")
	}
}
