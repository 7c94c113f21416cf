package lrd_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"lrd"
)

// TestPublicAPIQuickstart exercises the documented quick-start flow end to
// end through the facade only.
func TestPublicAPIQuickstart(t *testing.T) {
	marginal := lrd.MustMarginal(
		[]float64{2, 8, 16},
		[]float64{0.3, 0.5, 0.2},
	)
	src, err := lrd.NewSource(marginal, lrd.TruncatedPareto{
		Theta: 0.016, Alpha: 1.2, Cutoff: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := src.Hurst(); math.Abs(got-0.9) > 1e-12 {
		t.Fatalf("Hurst = %v, want 0.9", got)
	}
	q, err := lrd.NewModelNormalized(lrd.NewFluidSource(src), 0.8, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := lrd.Solve(q, lrd.SolverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !(res.Lower <= res.Loss && res.Loss <= res.Upper) {
		t.Fatalf("loss %v outside its own bounds [%v, %v]", res.Loss, res.Lower, res.Upper)
	}
	if res.Loss <= 0 {
		t.Fatal("this configuration must lose work")
	}
}

// TestPublicAPIModelPath exercises the generalized Model entry point with
// a Markovian epoch law.
func TestPublicAPIModelPath(t *testing.T) {
	m := lrd.MustMarginal([]float64{0, 2}, []float64{0.5, 0.5})
	h, err := lrd.NewHyperexponential([]float64{0.5, 0.5}, []float64{0.02, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	model, err := lrd.NewModel(m, h, 1.25, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := lrd.Solve(model, lrd.SolverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Loss <= 0 || !res.Converged {
		t.Fatalf("unexpected result %+v", res)
	}
}

// TestPublicAPITracePipeline runs synthesize → fit → solve through the
// facade.
func TestPublicAPITracePipeline(t *testing.T) {
	tr, err := lrd.SynthesizeTrace(lrd.TraceConfig{
		Name:     "api",
		Hurst:    0.8,
		Bins:     4096,
		BinWidth: 0.02,
		Quantile: lrd.LognormalQuantile(3, 0.4),
	}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	tm, err := lrd.BuildTraceModel(tr, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	src, err := tm.Source(math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	q, err := lrd.NewModelNormalized(lrd.NewFluidSource(src), 0.85, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lrd.Solve(q, lrd.SolverConfig{}); err != nil {
		t.Fatal(err)
	}
	// Simulation of the same trace through the facade.
	st, err := lrd.SimulateTrace(tr.Rates, tr.BinWidth, tm.Marginal.Mean()/0.85, 0.1*tm.Marginal.Mean()/0.85)
	if err != nil {
		t.Fatal(err)
	}
	if st.LossRate() < 0 || st.LossRate() > 1 {
		t.Fatalf("implausible simulated loss %v", st.LossRate())
	}
}

// ExampleMarginal demonstrates the deterministic marginal algebra.
func ExampleMarginal() {
	m := lrd.MustMarginal([]float64{0, 10}, []float64{0.5, 0.5})
	fmt.Printf("mean %.0f, variance %.0f\n", m.Mean(), m.Variance())
	narrowed := m.Scale(0.5)
	fmt.Printf("after Scale(0.5): mean %.0f, variance %.2f\n", narrowed.Mean(), narrowed.Variance())
	// Output:
	// mean 5, variance 25
	// after Scale(0.5): mean 5, variance 6.25
}

// ExampleTruncatedPareto shows the Hurst-parameter correspondence.
func ExampleTruncatedPareto() {
	p := lrd.TruncatedPareto{Theta: 0.016, Alpha: 1.2, Cutoff: math.Inf(1)}
	fmt.Printf("H = %.2f\n", lrd.HurstFromAlpha(p.Alpha))
	fmt.Printf("mean epoch = %.2f s\n", p.Mean())
	// Output:
	// H = 0.90
	// mean epoch = 0.08 s
}
