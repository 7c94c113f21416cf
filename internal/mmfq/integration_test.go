package mmfq_test

import (
	"context"
	"math"
	"testing"

	"lrd/internal/dist"
	"lrd/internal/mmfq"
	"lrd/internal/numerics"
	"lrd/internal/solver"
)

// renewalAsMMFQ expresses the hyperexponential-renewal fluid source as a
// Markov-modulated fluid: states (component k, rate i); each state exits
// at rate 1/τ_k into (k', i') with probability a_{k'}·π_{i'} (the renewal
// redraw). This is exact — the phase-type renewal model *is* an MMFM — so
// the spectral engine and the paper's solver describe the same system.
func renewalAsMMFQ(marg dist.Marginal, h dist.Hyperexponential) mmfq.Modulator {
	nk := len(h.Weights)
	ni := marg.Len()
	n := nk * ni
	idx := func(k, i int) int { return k*ni + i }
	q := make([][]float64, n)
	rates := make([]float64, n)
	for k := 0; k < nk; k++ {
		exit := 1 / h.Scales[k]
		for i := 0; i < ni; i++ {
			row := make([]float64, n)
			var diag float64
			for k2 := 0; k2 < nk; k2++ {
				for i2 := 0; i2 < ni; i2++ {
					if k2 == k && i2 == i {
						continue
					}
					r := exit * h.Weights[k2] * marg.Prob(i2)
					row[idx(k2, i2)] = r
					diag += r
				}
			}
			row[idx(k, i)] = -diag
			q[idx(k, i)] = row
			rates[idx(k, i)] = marg.Rate(i)
		}
	}
	return mmfq.Modulator{Generator: q, Rates: rates}
}

// TestFootnote2OverflowBoundsLoss verifies the paper's footnote 2 across
// the two independent engines: the infinite-buffer overflow probability
// (spectral MMFQ) upper-bounds the finite-buffer loss rate (bounded
// Lindley solver) for the same Markovian fluid model, at every buffer
// size.
func TestFootnote2OverflowBoundsLoss(t *testing.T) {
	marg := dist.MustMarginal([]float64{0, 2}, []float64{0.5, 0.5})
	h, err := dist.NewHyperexponential([]float64{0.7, 0.3}, []float64{0.02, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	c := 1.25 // utilization 0.8
	mod := renewalAsMMFQ(marg, h)
	sol, err := mmfq.Solve(mod, c)
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: the MMFQ stationary law reproduces the model's mean rate.
	mean, err := mod.MeanRate()
	if err != nil {
		t.Fatal(err)
	}
	if !numerics.AlmostEqual(mean, marg.Mean(), 1e-9) {
		t.Fatalf("MMFM mean rate %v, want %v", mean, marg.Mean())
	}
	for _, nbuf := range []float64{0.05, 0.2, 0.8} {
		buffer := nbuf * c
		model, err := solver.NewModel(marg, h, c, buffer)
		if err != nil {
			t.Fatal(err)
		}
		res, err := solver.SolveModelContext(context.Background(), model, solver.Config{RelGap: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		overflow := sol.OverflowProbability(buffer)
		if res.Lower > overflow*1.05+1e-12 {
			t.Fatalf("buffer %v: finite-buffer loss lower bound %v exceeds infinite-buffer overflow %v",
				buffer, res.Lower, overflow)
		}
		// The bound should also not be vacuous: same order of magnitude
		// for these short-memory models at moderate buffers.
		if overflow > 0 && res.Loss > 0 && overflow/res.Loss > 1e3 {
			t.Logf("note: bound is loose at buffer %v: overflow %v vs loss %v", buffer, overflow, res.Loss)
		}
	}
}

// TestMMFQDecayMatchesSolverTrend: as the buffer grows, the solver's loss
// should decay at (asymptotically) the MMFQ spectral decay rate for the
// same Markovian model.
func TestMMFQDecayMatchesSolverTrend(t *testing.T) {
	marg := dist.MustMarginal([]float64{0, 2}, []float64{0.5, 0.5})
	h, err := dist.NewHyperexponential([]float64{1}, []float64{0.1})
	if err != nil {
		t.Fatal(err)
	}
	c := 1.25
	mod := renewalAsMMFQ(marg, h)
	sol, err := mmfq.Solve(mod, c)
	if err != nil {
		t.Fatal(err)
	}
	eta := sol.DecayRate()
	if eta <= 0 {
		t.Fatalf("decay rate %v", eta)
	}
	// Loss at two buffers: the log-ratio per unit buffer approaches −η.
	losses := make([]float64, 2)
	buffers := []float64{0.5, 1.0}
	for i, b := range buffers {
		model, err := solver.NewModel(marg, h, c, b)
		if err != nil {
			t.Fatal(err)
		}
		res, err := solver.SolveModelContext(context.Background(), model, solver.Config{RelGap: 0.02})
		if err != nil {
			t.Fatal(err)
		}
		if res.Loss <= 0 {
			t.Skipf("loss underflow at buffer %v", b)
		}
		losses[i] = res.Loss
	}
	slope := (logOf(losses[1]) - logOf(losses[0])) / (buffers[1] - buffers[0])
	if slope > -0.5*eta || slope < -2*eta {
		t.Fatalf("solver decay slope %v vs spectral −η = %v", slope, -eta)
	}
}

func logOf(x float64) float64 {
	if x <= 0 {
		return -1e300
	}
	return math.Log(x)
}
