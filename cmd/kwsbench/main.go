// Command kwsbench benchmarks the kwsdbg serving stack over HTTP. For each
// workload it builds a fresh environment, serves it through the real
// server, drives it with a closed loop of clients, checks every response
// against a reference, and prints every metric as "workload metric value
// unit", then one JSON summary line per workload:
//
//	kwsbench -workload debug-warm -seed 1 -seconds 10
//	kwsbench -workload debug-warm -trace 1 -spans spans.jsonl
//
// With -trace 1 it runs the traced run instead and prints the per-layer
// metrics. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"kwsdbg/internal/kwsbench"
)

func main() {
	workload := flag.String("workload", "all", "workload name, or all")
	seed := flag.Int64("seed", 1, "seed for the request sequence: pass order, Zipf draws and write targets")
	seconds := flag.Float64("seconds", 15, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	spans := flag.String("spans", "", "with -trace 1, write the traced spans to this JSONL file (one file per workload with -workload all)")
	out := flag.String("out", "", "write the full results, host block included, to this JSON file")
	flag.Parse()

	if err := run(*workload, *out, kwsbench.Config{
		Seed: *seed, Seconds: *seconds, Trace: *trace == 1, SpansPath: *spans,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "kwsbench:", err)
		os.Exit(1)
	}
}

func run(name, out string, cfg kwsbench.Config) error {
	if cfg.Seconds <= 0 {
		return fmt.Errorf("-seconds must be positive, got %v", cfg.Seconds)
	}
	workloads := kwsbench.Workloads
	if name != "all" {
		w, err := kwsbench.Lookup(name)
		if err != nil {
			return err
		}
		workloads = []kwsbench.Workload{w}
	}
	host := kwsbench.CurrentHost(cfg.Seed)
	if host.NumCPU < 2 {
		fmt.Fprintf(os.Stderr, "kwsbench: warning: num_cpu=%d; the %d clients and the server timeslice one core\n",
			host.NumCPU, host.Clients)
	}
	fmt.Printf("host num_cpu %d\nhost gomaxprocs %d\nhost clients %d\nhost seed %d\nhost go_version %s\n",
		host.NumCPU, host.GOMAXPROCS, host.Clients, host.Seed, host.GoVersion)
	var results []*kwsbench.Result
	spans := cfg.SpansPath
	for _, w := range workloads {
		if spans != "" && len(workloads) > 1 {
			// One spans file per workload: spans.jsonl -> spans.debug-warm.jsonl.
			ext := filepath.Ext(spans)
			cfg.SpansPath = strings.TrimSuffix(spans, ext) + "." + w.Name + ext
		}
		res, err := kwsbench.Run(w, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		results = append(results, res)
		res.Print(os.Stdout)
		line, err := res.Summary()
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	if out == "" {
		return nil
	}
	b, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(b, '\n'), 0o644)
}
