package source_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"lrd/internal/solver"
	"lrd/internal/source"
)

// TestAMSMatchesMMFQ: with default parameters on the two-level test
// reference, ams and mmfq describe the *same* two-state CTMC-modulated
// fluid — ams through the 1982 closed form, mmfq through the spectral
// solution. Two independent derivations of one queue must agree to
// numerical precision at every buffer size.
func TestAMSMatchesMMFQ(t *testing.T) {
	ref := testRef(t)
	amsSrc, err := source.Build("ams", ref, nil)
	if err != nil {
		t.Fatal(err)
	}
	mmfqSrc, err := source.Build("mmfq", ref, nil)
	if err != nil {
		t.Fatal(err)
	}
	amsOracle, ok := amsSrc.(source.OverflowOracle)
	if !ok {
		t.Fatal("ams source has no overflow oracle")
	}
	mmfqOracle, ok := mmfqSrc.(source.OverflowOracle)
	if !ok {
		t.Fatal("mmfq source has no overflow oracle")
	}
	c := ref.MeanRate() / 0.8
	for _, buf := range []float64{0, 0.01, 0.1, 0.5, 1, 5} {
		a, err := amsOracle.ExactOverflow(c, buf)
		if err != nil {
			t.Fatalf("ams at buffer %g: %v", buf, err)
		}
		m, err := mmfqOracle.ExactOverflow(c, buf)
		if err != nil {
			t.Fatalf("mmfq at buffer %g: %v", buf, err)
		}
		if !(a > 0 && a < 1) {
			t.Fatalf("buffer %g: ams overflow %g outside (0, 1)", buf, a)
		}
		if rel := math.Abs(a-m) / m; rel > 1e-8 {
			t.Errorf("buffer %g: ams %g vs mmfq %g (rel diff %g)", buf, a, m, rel)
		}
	}
}

// TestAMSCustomPeak: a non-default peak rescales P(on) = mean/peak so the
// mean rate is still conserved, and the closed form remains consistent
// with the spectral solution when mmfq is handed the matching marginal.
func TestAMSCustomPeak(t *testing.T) {
	ref := testRef(t)
	s, err := source.Build("ams", ref, source.Params{"peak": 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.MeanRate()-ref.MeanRate()) > 1e-12 {
		t.Fatalf("mean rate %g, want %g", s.MeanRate(), ref.MeanRate())
	}
	m := s.Marginal()
	if m.Len() != 2 {
		t.Fatalf("marginal has %d levels, want 2", m.Len())
	}
	// Levels {0, 4} with P(on) = 1/4: the on probability shrinks to keep
	// the mean where the reference put it.
	var pOn float64
	for i := 0; i < m.Len(); i++ {
		if m.Rate(i) == 4 {
			pOn = m.Prob(i)
		}
	}
	if math.Abs(pOn-0.25) > 1e-12 {
		t.Fatalf("P(on) = %g, want 0.25", pOn)
	}
	if !strings.Contains(s.String(), "ams{") {
		t.Fatalf("String() = %q does not name the model", s.String())
	}
}

// TestAMSRejectsBadParams: the builder validates its parameters and the
// registry rejects parameters ams does not take.
func TestAMSRejectsBadParams(t *testing.T) {
	ref := testRef(t)
	for _, p := range []source.Params{
		{"peak": 0.5},            // below the mean rate: P(on) > 1
		{"peak": ref.MeanRate()}, // equal to the mean: the source never idles
		{"peak": math.Inf(1)},    // non-finite
		{"epoch": 0},             // degenerate epochs
		{"epoch": -1},            //
		{"epoch": math.Inf(1)},   //
		{"horizon": 10},          // not an ams parameter
	} {
		if _, err := source.Build("ams", ref, p); err == nil {
			t.Errorf("Build accepted params %v", p)
		}
	}
}

// TestAMSOracleRejectsUnstableQueue: a service rate at or above the peak
// (the queue never builds) or at or below the mean (unstable) is an error,
// not a silent nonsense probability.
func TestAMSOracleRejectsUnstableQueue(t *testing.T) {
	s, err := source.Build("ams", testRef(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	oracle := s.(source.OverflowOracle)
	for _, c := range []float64{s.MeanRate(), 2, 5} { // c=2 is the peak
		if _, err := oracle.ExactOverflow(c, 0.5); err == nil {
			t.Errorf("ExactOverflow accepted service rate %g", c)
		}
	}
}

// TestAMSSolverBracket: the bounded solver run on the ams source must keep
// its lower bound below the closed-form infinite-buffer overflow — the
// footnote-2 ordering loss ≤ Pr{Q > B}, with the exact law standing in for
// the truth. This is the cross-model consistency check the registry exists
// for: the same solver machinery, an independent analytic oracle.
func TestAMSSolverBracket(t *testing.T) {
	if testing.Short() {
		t.Skip("solves a model")
	}
	ref := testRef(t)
	s, err := source.Build("ams", ref, nil)
	if err != nil {
		t.Fatal(err)
	}
	oracle := s.(source.OverflowOracle)
	const util = 0.8
	for _, nbuf := range []float64{0.1, 0.5} {
		m, err := solver.NewModelNormalized(s, util, nbuf)
		if err != nil {
			t.Fatal(err)
		}
		res, err := solver.SolveModelContext(context.Background(), m, solver.Config{})
		if err != nil {
			t.Fatal(err)
		}
		c := s.MeanRate() / util
		exact, err := oracle.ExactOverflow(c, nbuf*c)
		if err != nil {
			t.Fatal(err)
		}
		if !(res.Lower <= res.Upper) {
			t.Fatalf("buffer %g: inverted solver bracket [%g, %g]", nbuf, res.Lower, res.Upper)
		}
		if res.Lower > exact*1.05+1e-12 {
			t.Errorf("buffer %g: solver lower bound %g exceeds exact overflow %g",
				nbuf, res.Lower, exact)
		}
	}
}

// TestAMSSpecRoundTrip: the registry plumbing — ParseSpec, Key, Realize —
// treats ams like any other model.
func TestAMSSpecRoundTrip(t *testing.T) {
	spec, err := source.ParseSpec("ams", "peak=4,epoch=0.1")
	if err != nil {
		t.Fatal(err)
	}
	if got := spec.Key(); got != "ams{epoch=0.1,peak=4}" {
		t.Fatalf("Key() = %q", got)
	}
	s, err := spec.Realize(testRef(t))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s.String(), "ams{") {
		t.Fatalf("realized %q", s.String())
	}
}
