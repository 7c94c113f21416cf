package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metricDef is one reported metric: its name and unit, as BENCHMARK.json
// declares them.
type metricDef struct{ Name, Unit string }

// endToEnd are the untraced metrics every workload reports. An operation is
// the workload's unit of work: a grid cell (sweep), a root-find (provision)
// or a request (serve).
var endToEnd = []metricDef{
	{"setup_s", "s"},          // median of repeated set-ups
	{"alloc_kb_per_op", "KB"}, // runtime.MemStats.TotalAlloc delta per operation
	{"op_ms", "ms"},           // see README.md: wall per cell, wall per root-find, or mix-weighted median latency
}

// perLayer are the traced run's metrics. A layer the workload does not
// exercise reports 0 (serve counters on sweep, core counters on serve).
var perLayer = []metricDef{
	{"core.cell_ms.p50", "ms"},
	{"core.cell_ms.p99", "ms"},
	{"core.worker_busy_ratio", "ratio"},
	{"core.warm_solve_ratio", "ratio"},
	{"core.provision_solves", "count"},
	{"solver.steps_per_solve", "count"},
	{"solver.refines_per_solve", "count"},
	{"solver.final_bins.p50", "count"},
	{"solver.final_bins.max", "count"},
	{"solver.converged_ratio", "ratio"},
	{"solver.step_us.m128", "us"},
	{"solver.step_us.m1024", "us"},
	{"solver.step_us.m8192", "us"},
	{"solver.grid_ms.m1024", "ms"},
	{"solver.step_share", "ratio"},
	{"solver.grid_share", "ratio"},
	{"solver.arena_reuse_ratio", "ratio"},
	{"fft.convolve_us.n512", "us"},
	{"fft.convolve_us.n4096", "us"},
	{"fft.convolve_us.n32768", "us"},
	{"fft.convolves_per_step", "count"},
	{"fft.plan_hit_ratio", "ratio"},
	{"fft.gflops_computed.n32768", "GFLOP/s"},
	{"dist.ccdf_both_ns", "ns"},
	{"dist.integral_ccdf_ns", "ns"},
	{"dist.evals_per_grid", "count"},
	{"serve.hit_ratio", "ratio"},
	{"serve.coalesced", "count"},
	{"serve.shed", "count"},
	{"serve.errors", "count"},
	{"serve.solve_ms.p50", "ms"},
	{"serve.inflight_mean", "count"},
	{"serve.littles_law_ratio", "ratio"},
	{"serve.hit_p50_ms", "ms"},
	{"serve.hit_p99_ms", "ms"},
	{"serve.miss_p50_ms", "ms"},
	{"serve.miss_p99_ms", "ms"},
	{"api.decode_us", "us"},
	{"api.encode_us", "us"},
	{"obs.observe_ns", "ns"},
	{"bench.generator_late_ms.max", "ms"},
	{"bench.trace_overhead_ratio", "ratio"},
}

// value is a metric as printed: the number with its unit.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// gate counts one correctness check's evaluations and failures.
type gate struct {
	Checked int `json:"checked"`
	Failed  int `json:"failed"`
}

// run accumulates one benchmark run: operation counts, gate verdicts, the
// reported metrics and, when traced, the spans.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool

	attempted, failed int
	gates             map[string]*gate
	metrics           map[string]float64
	detail            map[string]value
	spans             *spanLog
}

func newRun(workload string, seed int64, seconds time.Duration, trace bool) *run {
	r := &run{
		workload: workload, seed: seed, seconds: seconds, trace: trace,
		gates:   map[string]*gate{},
		metrics: map[string]float64{},
		detail:  map[string]value{},
	}
	if trace {
		r.spans = newSpanLog(fmt.Sprintf("%s-%d", workload, seed))
	}
	return r
}

// check records one evaluation of a per-operation gate and returns ok; the
// caller counts the operation as failed when any of its gates failed.
func (r *run) check(name string, ok bool) bool {
	g := r.gates[name]
	if g == nil {
		g = &gate{}
		r.gates[name] = g
	}
	g.Checked++
	if !ok {
		g.Failed++
	}
	return ok
}

// checkRun records a run-level gate (a counter identity); a failure counts
// as one failed operation.
func (r *run) checkRun(name string, ok bool) {
	if !r.check(name, ok) {
		r.failed++
	}
}

// ops counts n attempted operations of which bad failed.
func (r *run) ops(n, bad int) {
	r.attempted += n
	r.failed += bad
}

// set records a reported metric.
func (r *run) set(name string, v float64) { r.metrics[name] = v }

// note records a workload headline figure for the report line.
func (r *run) note(name string, v float64, unit string) { r.detail[name] = value{v, unit} }

// resultLine is the benchmark's last line of output.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// result assembles the final line: every metric of the run's kind must
// have been measured and be finite.
func (r *run) result() (resultLine, error) {
	defs := endToEnd
	if r.trace {
		defs = perLayer
	}
	out := resultLine{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		if !ok {
			return resultLine{}, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return resultLine{}, fmt.Errorf("metric %s is not finite: %v", d.Name, v)
		}
		out.Metrics[d.Name] = value{v, d.Unit}
	}
	if r.attempted < 1 {
		return resultLine{}, fmt.Errorf("no operation was attempted")
	}
	out.Correct = r.failed == 0
	for _, g := range r.gates {
		if g.Failed > 0 {
			out.Correct = false
		}
	}
	return out, nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN when xs is empty). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// fitsAnother reports whether, after rounds whole rounds took elapsed,
// one more round of the same length still ends within budget. Measuring
// whole rounds keeps every run's mix of inputs the same; stopping on the
// projected end rather than on elapsed < budget keeps the round count from
// flipping on noise when a round lasts about as long as the budget.
func fitsAnother(elapsed time.Duration, rounds int, budget time.Duration) bool {
	return elapsed+elapsed/time.Duration(rounds) <= budget
}

// ratio is a/b, or 0 when b is 0 (a layer the workload did not exercise).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
