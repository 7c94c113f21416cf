package main

import (
	"context"
	"math/rand"
	"runtime"
	"time"

	"lrd/internal/api"
	"lrd/internal/core"
	"lrd/internal/dist"
	"lrd/internal/fft"
	"lrd/internal/fluid"
	"lrd/internal/obs"
	"lrd/internal/solver"
	"lrd/internal/source"
)

// The provision queue is the one of core's bracket-invariant test: a {0,2}
// marginal, θ = 0.02 s, α = 1.4, utilization 0.8, loss SLO 0.05, buffers
// searched up to 2 s.
const (
	provUtil = 0.8
	provSLO  = 0.05
	provMax  = 2.0
	provTol  = core.DefaultProvisionTol
	// provBand is the relative half-width of the cutoff bands around Tc = 1
	// and Tc = 10 the seed draws from. A root-find's cost jumps wherever a
	// bisection probe's bound bracket comes to straddle the SLO, which
	// triggers gap tightening up to M = 8192: at ±1% the Tc≈10 root-find
	// ranges over 9–20 s. Within ±1e-4 every probe keeps its verdict, so
	// seeds vary the inputs without varying the work.
	provBand = 1e-4
)

func provisionConfig() solver.Config { return solver.Config{RelGap: 0.2, MaxBins: 1 << 13} }

// provisionCutoffs draws the seed's two cutoffs, near 1 s and near 10 s.
func provisionCutoffs(seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	var out []float64
	for _, tc := range []float64{1, 10} {
		out = append(out, tc*(1+provBand*(2*rng.Float64()-1)))
	}
	return out
}

func provisionSource(cutoff float64) (source.Source, error) {
	m, err := dist.NewMarginal([]float64{0, 2}, []float64{0.5, 0.5})
	if err != nil {
		return nil, err
	}
	src, err := fluid.New(m, dist.TruncatedPareto{Theta: 0.02, Alpha: 1.4, Cutoff: cutoff})
	if err != nil {
		return nil, err
	}
	return source.NewFluid(src), nil
}

// checkProvision gates one root-find: the proven loss at Value meets the
// SLO, the proven loss at Bracket does not, and the bracket is within tol.
func checkProvision(r *run, p core.Provisioned) bool {
	ok := r.check("provision.loss_within_slo", p.Loss <= provSLO)
	ok = r.check("provision.bracket_above_slo", provSLO < p.BracketLoss) && ok
	return r.check("provision.bracket_within_tol", p.Bracket > 0 && p.Value/p.Bracket-1 <= provTol*1.0001) && ok
}

// coldCheck solves the queue cold at the provisioned buffer: its proven
// lower bound must not exceed the SLO. It runs outside the timed region.
func coldCheck(ctx context.Context, r *run, src source.Source, p core.Provisioned) (bool, error) {
	m, err := solver.NewModelNormalized(src, provUtil, p.Value)
	if err != nil {
		return false, err
	}
	res, err := solver.SolveModelContext(ctx, m, provisionConfig())
	if err != nil {
		return false, err
	}
	return r.check("provision.cold_solve_meets_slo", res.Lower <= provSLO), nil
}

func runProvision(ctx context.Context, r *run) error {
	cutoffs := provisionCutoffs(r.seed)

	// Set-up: the two sources, a forward solve of each at the bracket
	// minimum, and one convolution at every transform length the
	// root-finds use (filling the FFT plan cache), three times.
	var srcs []source.Source
	var setups []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		srcs = srcs[:0]
		for _, tc := range cutoffs {
			src, err := provisionSource(tc)
			if err != nil {
				return err
			}
			m, err := solver.NewModelNormalized(src, provUtil, core.DefaultMinBuffer)
			if err != nil {
				return err
			}
			if _, err := solver.SolveModelContext(ctx, m, provisionConfig()); err != nil {
				return err
			}
			srcs = append(srcs, src)
		}
		var s fft.Scratch
		for m := 64; m <= provisionConfig().MaxBins; m *= 2 {
			sink += fft.ConvolveRealInto(make([]float64, m+1), make([]float64, 2*m+1), &s)[0]
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.set("setup_s", median(setups))

	// rootFind provisions srcs[i] once and gates the result; last keeps
	// each cutoff's latest result.
	last := make([]core.Provisioned, len(srcs))
	rootFind := func(i int, cfg solver.Config) (float64, error) {
		t0 := time.Now()
		p, err := core.Provision(ctx, srcs[i], core.ProvisionOptions{SLO: provSLO, Util: provUtil, Max: provMax, Solver: cfg})
		d := time.Since(t0).Seconds()
		if err != nil {
			return 0, err
		}
		bad := 0
		if !checkProvision(r, p) {
			bad = 1
		}
		r.ops(1, bad)
		last[i] = p
		return d, nil
	}
	// gateCold runs the cold forward check once per cutoff: Provision is
	// deterministic, so every round provisions the same value.
	gateCold := func() error {
		for i, src := range srcs {
			ok, err := coldCheck(ctx, r, src, last[i])
			if err != nil {
				return err
			}
			if !ok {
				r.failed++
			}
		}
		return nil
	}

	if !r.trace {
		// Whole rounds, one root-find per cutoff, as many as fit in the
		// budget (at least one).
		walls := make([][]float64, len(srcs))
		var all []float64
		var ms0, ms1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		for start, rounds := time.Now(), 0; rounds == 0 || fitsAnother(time.Since(start), rounds, r.seconds); rounds++ {
			for i := range srcs {
				d, err := rootFind(i, provisionConfig())
				if err != nil {
					return err
				}
				walls[i] = append(walls[i], d)
				all = append(all, d)
			}
		}
		runtime.ReadMemStats(&ms1)
		if err := gateCold(); err != nil {
			return err
		}
		r.set("op_ms", mean(all)*1e3)
		r.set("alloc_kb_per_op", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024/float64(len(all)))
		r.note("provision_s", mean(all), "s")
		r.note("provision_tc1_s", median(walls[0]), "s")
		r.note("provision_tc10_s", median(walls[1]), "s")
		r.note("solves_tc1", float64(last[0].Solves), "count")
		r.note("solves_tc10", float64(last[1].Solves), "count")
		return nil
	}

	// Traced run: each cutoff's root-find untraced and again with the
	// program's recorders and the benchmark's spans attached, the order
	// alternating between cutoffs so neither side always runs first.
	reg := obs.NewRegistry()
	tracer := newSolveTracer(r.spans)
	cfg := provisionConfig()
	cfg.Recorder = reg
	cfg.Trace = tracer.point
	var plain, traced []float64
	var solves float64
	for i := range srcs {
		for _, withTrace := range []bool{i%2 == 1, i%2 == 0} {
			if !withTrace {
				d, err := rootFind(i, provisionConfig())
				if err != nil {
					return err
				}
				plain = append(plain, d)
				continue
			}
			id, finish := r.spans.reserve("core.Provision")
			tracer.under(id)
			fft.SetRecorder(reg)
			d, err := rootFind(i, cfg)
			fft.SetRecorder(nil)
			finish()
			if err != nil {
				return err
			}
			traced = append(traced, d)
			solves += float64(last[i].Solves)
		}
	}
	if err := gateCold(); err != nil {
		return err
	}
	r.set("bench.trace_overhead_ratio", mean(traced)/mean(plain))
	r.checkRun("provision.solves_identity", reg.CounterValue(obs.MetricCoreProvisionSolves) == solves)
	r.set("core.provision_solves", solves/float64(len(traced)))
	_, solveMs := tracer.solveSummary()
	var busy float64
	for _, ms := range solveMs {
		busy += ms / 1e3
	}
	r.set("core.worker_busy_ratio", busy/(mean(traced)*float64(len(traced))))

	model, err := solver.NewModelNormalized(srcs[0], provUtil, last[0].Value)
	if err != nil {
		return err
	}
	p := last[0]
	return solverLayers(r, reg.CounterValue, tracer, layerInputs{
		model: model, inter: model.Interarrival.(dist.TruncatedPareto), arena: true, sizes: tracer.sizes(),
		req: api.ProvisionRequest{
			SolveRequest: api.SolveRequest{Marginal: "0:0.5,2:0.5", Alpha: 1.4, Theta: 0.02, Cutoff: cutoffs[0], Util: provUtil},
			SLO:          provSLO, Max: provMax,
		},
		resp: api.ProvisionResponse{
			Target: p.Target, Value: p.Value, Loss: p.Loss, Bracket: p.Bracket, BracketLoss: p.BracketLoss,
			SLO: provSLO, Solves: p.Solves, WarmSolves: p.WarmSolves,
		},
	})
}
