package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"time"

	"lrd/internal/api"
	"lrd/internal/dist"
	"lrd/internal/fft"
	"lrd/internal/obs"
	"lrd/internal/solver"
)

// sink keeps timed results alive so the compiler cannot drop the calls.
var sink float64

// timePer calls f reps times and returns the median wall seconds per call.
func timePer(reps int, f func()) float64 {
	ts := make([]float64, reps)
	for i := range ts {
		t0 := time.Now()
		f()
		ts[i] = time.Since(t0).Seconds()
	}
	return median(ts)
}

// repsAt scales a micro-benchmark's repetitions down with the resolution.
func repsAt(m int) int { return max(5, min(100, 65536/m)) }

// layerInputs are the workload's own model and bodies, on which the unit
// costs of the layers below core are timed.
type layerInputs struct {
	model solver.Model
	inter dist.TruncatedPareto
	arena bool  // whether the workload's solves run with a solver.Arena
	sizes []int // resolutions M the workload's solves used
	req   any   // the workload's typed request body
	resp  any   // and a response body of the run
}

// solverLayers sets the per-layer metrics every traced workload shares:
// the solver and fft counters of the traced phase, the shapes the tracer
// saw, the unit costs of timeLayers and the step/grid shares they imply.
// Workload-only layers the caller did not set report 0.
func solverLayers(r *run, counter func(string) float64, tracer *solveTracer, in layerInputs) error {
	solves := counter(obs.MetricSolverSolves)
	if solves == 0 {
		return errors.New("the traced phase ran no solve")
	}
	steps := counter(obs.MetricSolverSteps)
	r.set("core.warm_solve_ratio", counter(obs.MetricSolverWarmSolves)/solves)
	r.set("solver.steps_per_solve", steps/solves)
	r.set("solver.refines_per_solve", counter(obs.MetricSolverRefines)/solves)
	r.set("solver.converged_ratio", counter(obs.MetricSolverConverged)/solves)
	reuse, alloc := counter(obs.MetricSolverArenaReuse), counter(obs.MetricSolverArenaAlloc)
	r.set("solver.arena_reuse_ratio", ratio(reuse, reuse+alloc))
	bins, ms := tracer.solveSummary()
	r.set("solver.final_bins.p50", quantile(bins, 0.5))
	r.set("solver.final_bins.max", quantile(bins, 1))

	convolves := counter(obs.MetricFFTConvolveViaFFT) + counter(obs.MetricFFTConvolveNaive)
	r.set("fft.convolves_per_step", ratio(convolves, steps))
	hits, misses := counter(obs.MetricFFTPlanHits), counter(obs.MetricFFTPlanMisses)
	r.set("fft.plan_hit_ratio", ratio(hits, hits+misses))
	if r.workload != "serve" {
		// A core cell (sweep) or probe (provision) is one solve.
		r.set("core.cell_ms.p50", quantile(ms, 0.5))
		r.set("core.cell_ms.p99", quantile(ms, 0.99))
	}

	u, err := timeLayers(r, in)
	if err != nil {
		return err
	}
	step, grid := tracer.shares(u)
	r.set("solver.step_share", step)
	r.set("solver.grid_share", grid)
	r.note("solver.accounted_share", step+grid, "ratio")
	for _, name := range []string{"core.cell_ms.p50", "core.cell_ms.p99", "core.worker_busy_ratio", "core.provision_solves",
		"serve.hit_ratio", "serve.coalesced", "serve.shed", "serve.errors", "serve.solve_ms.p50",
		"serve.inflight_mean", "serve.littles_law_ratio", "serve.hit_p50_ms", "serve.hit_p99_ms",
		"serve.miss_p50_ms", "serve.miss_p99_ms", "bench.generator_late_ms.max"} {
		if _, ok := r.metrics[name]; !ok {
			r.set(name, 0)
		}
	}
	return nil
}

// timeLayers sets the unit-cost metrics of solver, fft, dist, api and obs
// on r, and returns the solver unit costs at every size in in.sizes (plus
// the fixed sizes the metrics name) for the step/grid shares.
func timeLayers(r *run, in layerInputs) (unitCosts, error) {
	sizes := map[int]bool{128: true, 1024: true, 8192: true}
	for _, m := range in.sizes {
		sizes[m] = true
	}
	u := unitCosts{step: map[int]float64{}, grid: map[int]float64{}, refine: map[int]float64{}}
	for m := range sizes {
		var err error
		if u.step[m], u.grid[m], u.refine[m], err = solverUnits(in.model, m, in.arena); err != nil {
			return unitCosts{}, err
		}
	}
	r.set("solver.step_us.m128", u.step[128]*1e6)
	r.set("solver.step_us.m1024", u.step[1024]*1e6)
	r.set("solver.step_us.m8192", u.step[8192]*1e6)
	r.set("solver.grid_ms.m1024", u.grid[1024]*1e3)

	for _, n := range []int{512, 4096, 32768} {
		us := convolveSeconds(n) * 1e6
		r.set(fmt.Sprintf("fft.convolve_us.n%d", n), us)
		if n == 32768 {
			// One real convolution is one forward and one inverse complex
			// transform of length n, at the nominal 5·n·log₂n flops each.
			flops := 2 * 5 * float64(n) * float64(bits.Len(uint(n))-1)
			r.set("fft.gflops_computed.n32768", flops/(us*1e-6)/1e9)
		}
	}

	ccdf, integral := distSeconds(in.inter, 1024)
	r.set("dist.ccdf_both_ns", ccdf*1e9)
	r.set("dist.integral_ccdf_ns", integral*1e9)
	// The grid build evaluates the law at 2M+2 points per marginal state.
	r.set("dist.evals_per_grid", float64(in.model.Marginal.Len()*(2*1024+2)))

	dec, enc, err := apiSeconds(in.req, in.resp)
	if err != nil {
		return unitCosts{}, err
	}
	r.set("api.decode_us", dec*1e6)
	r.set("api.encode_us", enc*1e6)
	r.set("obs.observe_ns", observeSeconds()*1e9)
	return u, nil
}

// solverUnits times, at resolution m, one Lindley step, one grid build
// (NewModelIterator at InitialBins = m) and one refinement from m/2 to m.
func solverUnits(model solver.Model, m int, arena bool) (step, grid, refine float64, err error) {
	newIt := func(initial, maxBins int) *solver.Iterator {
		cfg := solver.Config{InitialBins: initial, MaxBins: maxBins}
		if arena {
			cfg.Arena = solver.NewArena()
		}
		it, e := solver.NewModelIterator(model, cfg)
		if e != nil && err == nil {
			err = fmt.Errorf("solver iterator at M=%d: %w", initial, e)
		}
		return it
	}
	reps := repsAt(m)
	grid = timePer(reps, func() { newIt(m, m) })
	it := newIt(m, m)
	if err != nil {
		return 0, 0, 0, err
	}
	for i := 0; i < 2; i++ {
		if e := it.Step(); e != nil {
			return 0, 0, 0, e
		}
	}
	step = timePer(reps, func() {
		if e := it.Step(); e != nil && err == nil {
			err = e
		}
	})
	its := make([]*solver.Iterator, reps)
	for i := range its {
		its[i] = newIt(m/2, m)
	}
	if err != nil {
		return 0, 0, 0, err
	}
	i := 0
	refine = timePer(reps, func() { its[i].Refine(); i++ })
	return step, grid, refine, err
}

// convolveSeconds times fft.ConvolveRealInto at transform length n on the
// solver's shapes — an occupancy vector of M+1 and an increment pmf of 2M+1
// with n = 4M — reusing one Scratch as the solver does.
func convolveSeconds(n int) float64 {
	m := n / 4
	rng := rand.New(rand.NewSource(int64(n)))
	a, b := make([]float64, m+1), make([]float64, 2*m+1)
	for i := range a {
		a[i] = rng.Float64()
	}
	for i := range b {
		b[i] = rng.Float64()
	}
	var s fft.Scratch
	sink += fft.ConvolveRealInto(a, b, &s)[0]
	return timePer(repsAt(m), func() { sink += fft.ConvolveRealInto(a, b, &s)[m] })
}

// distSeconds times the two law evaluations that fill the solver's tables,
// per call, over 2m+2 points spanning both sides of the cutoff.
func distSeconds(p dist.TruncatedPareto, m int) (ccdf, integral float64) {
	upper := p.Cutoff * 1.2
	if math.IsInf(upper, 1) {
		upper = 100 * p.Theta
	}
	ts := make([]float64, 2*m+2)
	for i := range ts {
		ts[i] = upper * float64(i) / float64(len(ts)-1)
	}
	per := 1 / float64(len(ts))
	ccdf = per * timePer(20, func() {
		for _, t := range ts {
			gt, ge := p.CCDFBoth(t)
			sink += gt + ge
		}
	})
	f := p.IntegralCCDFFunc()
	integral = per * timePer(20, func() {
		for _, t := range ts {
			sink += f(t)
		}
	})
	return ccdf, integral
}

// apiSeconds times decoding the workload's request body the way the server
// does (unknown fields rejected) and encoding its response body, per call.
func apiSeconds(req, resp any) (decode, encode float64, err error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, 0, err
	}
	const batch = 50
	decode = timePer(40, func() {
		for i := 0; i < batch; i++ {
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			out := newLike(req)
			if e := dec.Decode(out); e != nil && err == nil {
				err = e
			}
		}
	}) / batch
	encode = timePer(40, func() {
		for i := 0; i < batch; i++ {
			b, e := json.Marshal(resp)
			if e != nil && err == nil {
				err = e
			}
			sink += float64(len(b))
		}
	}) / batch
	return decode, encode, err
}

// newLike returns a pointer to a zero value of req's api type.
func newLike(req any) any {
	switch req.(type) {
	case api.ProvisionRequest:
		return new(api.ProvisionRequest)
	default:
		return new(api.SolveRequest)
	}
}

// observeSeconds times obs.Histogram.Observe per call.
func observeSeconds() float64 {
	h := obs.NewRegistry().Histogram("perfbench_probe_seconds")
	const batch = 1000
	return timePer(40, func() {
		for i := 0; i < batch; i++ {
			h.Observe(float64(i) * 1e-6)
		}
	}) / batch
}
