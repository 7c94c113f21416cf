// Command perfbench is the repository's benchmark. It drives the program
// only through its public packages — core, solver, fft, dist, api, obs and
// serve (over HTTP) — on one of three workloads:
//
//	sweep      the dense 32×32 buffer×cutoff loss surface (table-heavy)
//	provision  buffer root-finds through core.Provision (FFT-heavy)
//	serve      open-loop POST /v1/solve, 80% cache hits, 20% fresh keys
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end ones (see BENCHMARK.json); with --trace 1 the run measures the
// workload once untraced and once with the program's recorders and the
// benchmark's spans attached, and reports the per-layer metrics. The line
// before it is a report: machine context, gate verdicts and the workload's
// own headline figures.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	if err := mainErr(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: sweep, provision or serve")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "measured seconds")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !(*seconds > 0) || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	w, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	env, err := readEnv(*seed)
	if err != nil {
		return err
	}
	r := newRun(*workload, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err := w(context.Background(), r); err != nil {
		return fmt.Errorf("%s: %w", *workload, err)
	}
	final, err := r.result()
	if err != nil {
		return err
	}
	if r.trace {
		if err := r.spans.writeFile(spanPath(r)); err != nil {
			return err
		}
	}
	report := map[string]any{
		"workload": r.workload, "seed": r.seed, "trace": r.trace,
		"env": env, "gates": r.gates, "detail": r.detail,
	}
	for _, v := range []any{report, final} {
		line, err := json.Marshal(v)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	return nil
}

// workloads maps each --workload name to the function that runs it.
var workloads = map[string]func(context.Context, *run) error{
	"sweep":     runSweep,
	"provision": runProvision,
	"serve":     runServe,
}
