package main

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"time"

	"lrd/internal/api"
	"lrd/internal/core"
	"lrd/internal/fft"
	"lrd/internal/obs"
	"lrd/internal/solver"
	"lrd/internal/source"
	"lrd/internal/traces"
)

// sweepUtil is the sweep's utilization.
const sweepUtil = 0.85

// sweepGrid is the dense Fig. 7-style grid of the repository's
// BenchmarkBatchSweep: 32 buffers in 1.25% steps × 32 log-spaced cutoffs
// from 0.5 s to 10 s, 1024 cells.
func sweepGrid() (buffers, cutoffs []float64) {
	buffers = make([]float64, 32)
	for i := range buffers {
		buffers[i] = 0.05 * (1 + 0.0125*float64(i))
	}
	cutoffs = make([]float64, 32)
	for j := range cutoffs {
		cutoffs[j] = 0.5 * math.Pow(20, float64(j)/float64(len(cutoffs)-1))
	}
	return buffers, cutoffs
}

// sweepModel synthesizes the seed's H=0.85 trace and fits the 50-state
// histogram model to it.
func sweepModel(seed int64) (core.TraceModel, error) {
	tr, err := traces.Synthesize(traces.Config{
		Name:     "perfbench",
		Hurst:    0.85,
		Bins:     1 << 13,
		BinWidth: 0.02,
		Quantile: traces.LognormalQuantile(4, 0.5),
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		return core.TraceModel{}, err
	}
	return core.BuildTraceModel(tr, 0.85)
}

// sweepConfig is the sweep's solver set-up: a tight 5% gap on a 64→1024
// ladder, warm starts chained along the buffer axis, one worker per core.
func sweepConfig() core.SweepConfig {
	cfg := core.Sweep(solver.Config{InitialBins: 64, MaxBins: 1024, MaxIterations: 20000, RelGap: 0.05})
	cfg.WarmStarts = true
	cfg.Workers = runtime.NumCPU()
	return cfg
}

// checkSweep applies the sweep's correctness gates to one pass and returns
// how many cells failed any of them: every cell converged with lower <=
// upper, at the grid coordinates asked for, and within each cutoff column
// the bounds are monotone in buffer (lower(b[i+1]) <= upper(b[i])).
func checkSweep(r *run, pts []core.Point, buffers, cutoffs []float64) int {
	nc := len(cutoffs)
	if len(pts) != len(buffers)*nc {
		r.check("sweep.complete", false)
		return len(buffers) * nc
	}
	bad := 0
	for i, p := range pts {
		b, c := i/nc, i%nc
		ok := r.check("sweep.converged", p.Converged && p.Degraded == "")
		ok = r.check("sweep.bounds_ordered", p.Lower <= p.Upper) && ok
		ok = r.check("sweep.grid_coordinates", p.NormalizedBuffer == buffers[b] && p.Cutoff == cutoffs[c]) && ok
		if b > 0 {
			ok = r.check("sweep.monotone_in_buffer", p.Lower <= pts[i-nc].Upper) && ok
		}
		if !ok {
			bad++
		}
	}
	return bad
}

// sweepPool is how many trace models one run sweeps, one per pass. The
// empirical marginal of a long-range dependent trace converges slowly, so
// one trace's sweep cost moves by ±15% with its seed; a run averages
// sweepPool traces drawn from its seed.
const sweepPool = 20

func runSweep(ctx context.Context, r *run) error {
	buffers, cutoffs := sweepGrid()
	cells := len(buffers) * len(cutoffs)

	// Set-up: synthesize and fit the run's trace models, three times; the
	// median counts.
	var pool []core.TraceModel
	var setups []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		pool = pool[:0]
		for k := 0; k < sweepPool; k++ {
			tm, err := sweepModel(r.seed*sweepPool + int64(k))
			if err != nil {
				return err
			}
			pool = append(pool, tm)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.set("setup_s", median(setups))

	// measure sweeps the models in whole rounds, gating every pass, for as
	// many rounds as fit in budget (at least one); it returns the pass walls
	// and the bytes allocated.
	measure := func(models []core.TraceModel, cfg core.SweepConfig, budget time.Duration, span func() func()) ([]float64, uint64, error) {
		var ms0, ms1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		var walls []float64
		for start := time.Now(); len(walls) == 0 || fitsAnother(time.Since(start), len(walls)/len(models), budget); {
			for _, tm := range models {
				done := span()
				t0 := time.Now()
				pts, err := core.LossVsBufferAndCutoff(ctx, tm, sweepUtil, buffers, cutoffs, cfg)
				walls = append(walls, time.Since(t0).Seconds())
				done()
				if err != nil {
					return nil, 0, err
				}
				r.ops(cells, checkSweep(r, pts, buffers, cutoffs))
			}
		}
		runtime.ReadMemStats(&ms1)
		return walls, ms1.TotalAlloc - ms0.TotalAlloc, nil
	}
	noSpan := func() func() { return func() {} }

	if !r.trace {
		walls, alloc, err := measure(pool, sweepConfig(), r.seconds, noSpan)
		if err != nil {
			return err
		}
		perCell := mean(walls) / float64(cells)
		r.set("op_ms", perCell*1e3)
		r.set("alloc_kb_per_op", float64(alloc)/1024/float64(len(walls)*cells))
		r.note("sweep_ns_per_cell", perCell*1e9, "ns")
		r.note("passes", float64(len(walls)), "count")
		return nil
	}

	// Traced run: each model of half the pool swept untraced, then again
	// with the program's recorders and the benchmark's spans attached.
	reg := obs.NewRegistry()
	tracer := newSolveTracer(r.spans)
	cfg := sweepConfig()
	cfg.Solver.Recorder = reg
	cfg.Solver.Trace = tracer.point
	var plain, traced []float64
	for _, tm := range pool[:sweepPool/2] {
		w, _, err := measure([]core.TraceModel{tm}, sweepConfig(), 0, noSpan)
		if err != nil {
			return err
		}
		plain = append(plain, w...)
		fft.SetRecorder(reg)
		w, _, err = measure([]core.TraceModel{tm}, cfg, 0, func() func() {
			id, finish := r.spans.reserve("core.LossVsBufferAndCutoff")
			tracer.under(id)
			return finish
		})
		fft.SetRecorder(nil)
		if err != nil {
			return err
		}
		traced = append(traced, w...)
	}
	// A warm-chained sweep schedules whole chains, one per cutoff column,
	// and core counts those as its completed units; every cell is one solve.
	passes := float64(len(traced))
	r.checkRun("sweep.chains_completed_identity",
		reg.CounterValue(obs.MetricCoreCellsCompleted) == passes*float64(len(cutoffs)))
	r.checkRun("sweep.solves_identity", reg.CounterValue(obs.MetricSolverSolves) == passes*float64(cells))
	r.set("bench.trace_overhead_ratio", mean(traced)/mean(plain))
	r.set("core.worker_busy_ratio", reg.CounterValue(obs.MetricCoreWorkerBusySecond)/(float64(cfg.Workers)*mean(traced)*passes))

	tm := pool[0]
	src, err := tm.Source(cutoffs[len(cutoffs)/2])
	if err != nil {
		return err
	}
	model, err := solver.NewModelNormalized(source.NewFluid(src), sweepUtil, buffers[len(buffers)/2])
	if err != nil {
		return err
	}
	res, err := solver.SolveModelContext(ctx, model, sweepConfig().Solver)
	if err != nil {
		return err
	}
	return solverLayers(r, reg.CounterValue, tracer, layerInputs{
		model: model, inter: src.Interarrival, arena: true, sizes: tracer.sizes(),
		req: api.SolveRequest{
			Marginal: source.FormatMarginal(tm.Marginal), Hurst: tm.Hurst, Epoch: tm.MeanEpoch,
			Cutoff: src.Interarrival.Cutoff, Util: sweepUtil, Buffer: buffers[len(buffers)/2],
			Solver: api.SolverParams{RelGap: 0.05, MaxBins: 1024},
		},
		resp: solveResponse(res, "perfbench"),
	})
}

// solveResponse renders a solver result as the /v1/solve body.
func solveResponse(res solver.Result, key string) api.SolveResponse {
	return api.SolveResponse{
		Loss: res.Loss, Lower: res.Lower, Upper: res.Upper, RelativeGap: res.RelativeGap(),
		Bins: res.Bins, Iterations: res.Iterations, Converged: res.Converged,
		Degraded: string(res.Degraded), GridStep: res.GridStep, Key: key,
	}
}
