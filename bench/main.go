// Command bench is the repository's outside-in benchmark: it times calls
// into the public functions of each layer — catalog/surface and the
// experiment pipeline (set-up), sim, decoder, experiment (engine and
// Frontier), checkpoint, fabric and rtd — on four workloads, checks that
// every output is correct, and prints the end-to-end metrics (or, with
// -trace 1, the per-layer ones) as one JSON line. See README.md.
//
//	bash bench/run.sh --workload planar-d3 --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh -repeat 5 -out runs.json      # every workload, child processes
//	bash bench/run.sh -compare parent.json change.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

func main() {
	// Every mode runs from the repository root, beside BENCHMARK.json,
	// and refuses to run when the two disagree on what is measured.
	if err := checkSpec("BENCHMARK.json"); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the exit, so the smoke test can drive it.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run this one workload in this process")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "run length in seconds; every input size scales with it")
	trace := fs.Int("trace", 0, "1 = traced run: report per-layer metrics and write spans")
	spans := fs.String("spans", "", "where a traced run writes its spans (default .bench_build/spans/<workload>.json)")
	repeat := fs.Int("repeat", 1, "harness mode: rounds over every workload, one child process per run")
	out := fs.String("out", "", "harness mode: write every run's result to this JSON file")
	compare := fs.Bool("compare", false, "compare two results files against ./BENCHMARK.json: -compare parent.json change.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two results files")
			return 2
		}
		return compareFiles("BENCHMARK.json", fs.Arg(0), fs.Arg(1), stdout, stderr)
	case *name == "":
		return harness(*seed, *seconds, *trace, *repeat, *out, stdout, stderr)
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	opt := runOptions{seed: *seed, seconds: *seconds, traced: *trace == 1, spans: *spans}
	if opt.traced && opt.spans == "" {
		opt.spans = filepath.Join(".bench_build", "spans", w.name+".json")
	}
	res, err := runWorkload(context.Background(), w, opt, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", w.name+":", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
