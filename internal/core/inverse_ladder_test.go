package core

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"lrd/internal/dist"
	"lrd/internal/fluid"
	"lrd/internal/solver"
	"lrd/internal/source"
)

// ladder is the reference probeFunc, the prober Provision used before
// probes were decided inside the solver: solve at cfg.RelGap and, while the
// bracket straddles the SLO, re-solve warm-seeded from the probe's own
// iterate at a quarter of the gap, down to probeGapFloor or until the
// bracket stops shrinking. Each re-solve counts against the budget.
func (p *prober) ladder(ctx context.Context, m solver.Model, seed *solver.Seed) (solver.Result, error) {
	cfg := p.cfg
	res, err := solver.SolveModelSeeded(ctx, m, cfg, seed)
	if err != nil {
		return solver.Result{}, err
	}
	for res.Lower <= p.slo && p.slo < res.Upper {
		gap := cfg.RelGap
		if gap <= 0 {
			gap = 0.2 // the solver's documented default
		}
		if gap <= probeGapFloor {
			break
		}
		cfg.RelGap = math.Max(gap/4, probeGapFloor)
		if err := ctx.Err(); err != nil {
			return solver.Result{}, err
		}
		if err := p.budget(); err != nil {
			return solver.Result{}, err
		}
		p.solves++
		p.warm++
		width := res.Upper - res.Lower
		res, err = solver.SolveModelSeeded(ctx, m, cfg, solver.SeedFromResult(m, res))
		if err != nil {
			return solver.Result{}, err
		}
		if !(res.Upper-res.Lower < width) {
			break
		}
	}
	return res, nil
}

// probe is one resolved bisection probe: its queue and final bounds.
type probe struct {
	model solver.Model
	res   solver.Result
}

// probeLog wraps a probeFunc to record every probe it resolves.
func probeLog(f probeFunc, log *[]probe) probeFunc {
	return func(p *prober, ctx context.Context, m solver.Model, seed *solver.Seed) (solver.Result, error) {
		res, err := f(p, ctx, m, seed)
		*log = append(*log, probe{m, res})
		return res, err
	}
}

// formatProbes renders a probe log as per-probe bound evidence.
func formatProbes(log []probe, slo float64) string {
	var b strings.Builder
	for _, pr := range log {
		fmt.Fprintf(&b, "  service %.17g buffer %.17g: [%.9g, %.9g] bins %d iters %d converged %v feasible %v\n",
			pr.model.ServiceRate, pr.model.Buffer, pr.res.Lower, pr.res.Upper,
			pr.res.Bins, pr.res.Iterations, pr.res.Converged, pr.res.Upper <= slo)
	}
	return b.String()
}

// ladderTestSource is the provisioning test queue (a {0,2} marginal,
// θ = 0.02 s, α = 1.4) at the given cutoff.
func ladderTestSource(t *testing.T, cutoff float64) source.Source {
	t.Helper()
	m, err := dist.NewMarginal([]float64{0, 2}, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	src, err := fluid.New(m, dist.TruncatedPareto{Theta: 0.02, Alpha: 1.4, Cutoff: cutoff})
	if err != nil {
		t.Fatal(err)
	}
	return source.NewFluid(src)
}

// provisionBoth runs one root-find with the ladder prober and again with
// the decided one, returning both answers and their probe logs.
func provisionBoth(t *testing.T, src source.Source, opts ProvisionOptions) (ref, got Provisioned, refLog, gotLog []probe) {
	t.Helper()
	ref, err := provision(context.Background(), src, opts, probeLog((*prober).ladder, &refLog))
	if err != nil {
		t.Fatalf("ladder prober: %v", err)
	}
	got, err = provision(context.Background(), src, opts, probeLog((*prober).decide, &gotLog))
	if err != nil {
		t.Fatalf("decided prober: %v", err)
	}
	return ref, got, refLog, gotLog
}

// TestProvisionDecidedMatchesLadder: stopping each probe as soon as its
// bracket clears the SLO decides every probe the way the ladder prober
// did, so Value and Bracket are bitwise the ladder's, and it never spends
// more solves. Each buffer case's utilization and bracket keep the
// ladder's probes off the MaxBins plateau, where a plain solve short of
// its gap target can run to MaxIterations: at utilization 0.6, Tc 0.5, SLO
// 1e-3 and a 1 s bracket, one probe 300 times below the SLO takes the
// ladder 200000 iterations and the decided prober 32.
func TestProvisionDecidedMatchesLadder(t *testing.T) {
	cases := []struct {
		target            string
		cutoff, slo       float64
		util, max, buffer float64
	}{
		{TargetBuffer, 0.5, 0.05, 0.7, 1, 0},
		{TargetBuffer, 0.5, 1e-3, 0.6, 2, 0},
		{TargetBuffer, 3, 0.05, 0.7, 1, 0},
		{TargetBuffer, 3, 1e-3, 0.6, 1, 0},
		{TargetService, 0.5, 0.05, 0, 0, 0.1},
		{TargetService, 0.5, 1e-3, 0, 0, 0.1},
		{TargetService, 3, 0.05, 0, 0, 0.1},
		{TargetService, 3, 1e-3, 0, 0, 0.1},
	}
	for _, c := range cases {
		c := c
		t.Run(fmt.Sprintf("%s/Tc%g/slo%g", c.target, c.cutoff, c.slo), func(t *testing.T) {
			if testing.Short() && c.target == TargetBuffer && c.cutoff > 1 {
				t.Skip("about a second per root-find pair; runs without -short")
			}
			opts := ProvisionOptions{
				Target: c.target, SLO: c.slo, Util: c.util, Max: c.max, Buffer: c.buffer,
				Solver: solver.Config{RelGap: 0.2, MaxBins: 1024},
			}
			ref, got, refLog, gotLog := provisionBoth(t, ladderTestSource(t, c.cutoff), opts)
			if math.Float64bits(got.Value) != math.Float64bits(ref.Value) ||
				math.Float64bits(got.Bracket) != math.Float64bits(ref.Bracket) {
				t.Fatalf("verdicts differ: decided value %.17g bracket %.17g, ladder value %.17g bracket %.17g\nladder probes:\n%sdecided probes:\n%s",
					got.Value, got.Bracket, ref.Value, ref.Bracket, formatProbes(refLog, c.slo), formatProbes(gotLog, c.slo))
			}
			if got.Solves > ref.Solves {
				t.Errorf("decided prober spent %d solves, ladder %d", got.Solves, ref.Solves)
			}
			if got.Bracket == 0 {
				t.Fatal("no infeasible point probed; the case does not exercise the bisection")
			}
			if !(got.Loss <= c.slo && c.slo < got.BracketLoss) {
				t.Errorf("loss %g, bracket loss %g: want loss <= SLO %g < bracket loss", got.Loss, got.BracketLoss, c.slo)
			}
		})
	}
}

// TestProvisionDecidedProvesWhereLadderStopped pins a divergence from the
// ladder prober. At utilization 0.6 the ladder's probe at the decided
// answer's buffer is warm-seeded from its infeasible neighbor with a
// bracket already inside its gap target, so its re-solve runs no
// iteration, the width stops shrinking, and it reports that probe
// infeasible while the bracket still straddles the SLO. The decided probe
// keeps iterating until its upper bound clears the SLO, so the decided
// answer is a smaller buffer whose feasibility is proven.
func TestProvisionDecidedProvesWhereLadderStopped(t *testing.T) {
	const slo = 0.05
	src := ladderTestSource(t, 0.5)
	opts := ProvisionOptions{SLO: slo, Util: 0.6, Max: 2, Solver: solver.Config{RelGap: 0.2, MaxBins: 512}}
	ref, got, refLog, gotLog := provisionBoth(t, src, opts)
	evidence := fmt.Sprintf("ladder probes:\n%sdecided probes:\n%s", formatProbes(refLog, slo), formatProbes(gotLog, slo))
	if !(got.Value < ref.Value) {
		t.Fatalf("decided value %.17g not below ladder value %.17g\n%s", got.Value, ref.Value, evidence)
	}
	if !(got.Loss <= slo && slo < got.BracketLoss) || got.Value/got.Bracket-1 > DefaultProvisionTol*1.0001 {
		t.Fatalf("decided answer value %g loss %g, bracket %g loss %g: not a proven bracket within tol\n%s",
			got.Value, got.Loss, got.Bracket, got.BracketLoss, evidence)
	}
	at := func(log []probe) solver.Result {
		for _, pr := range log {
			if pr.model.NormalizedBuffer() == got.Value {
				return pr.res
			}
		}
		t.Fatalf("no probe at buffer %.17g\n%s", got.Value, evidence)
		return solver.Result{}
	}
	if r := at(refLog); !(r.Lower <= slo && slo < r.Upper) {
		t.Errorf("ladder probe at %g: bracket [%g, %g] does not straddle the SLO\n%s", got.Value, r.Lower, r.Upper, evidence)
	}
	if r := at(gotLog); !(r.Upper <= slo) {
		t.Errorf("decided probe at %g: upper bound %g does not clear the SLO\n%s", got.Value, r.Upper, evidence)
	}
	if fv := forwardSolve(t, src, opts.Util, got.Value, opts.Solver); fv.Lower > slo {
		t.Errorf("cold forward solve at %g: lower bound %g > SLO", got.Value, fv.Lower)
	}
}
