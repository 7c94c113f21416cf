package solver

import (
	"context"
	"math"
	"testing"
)

// TestRunUntilDecidedStopsAtFirstDecidingStep: a decided solve stops at the
// first committed iterate whose bracket excludes the threshold — checked
// against an Iterator stepped by hand with the same rule. A single rung
// (InitialBins = MaxBins) and a negligible RelGap keep the other stopping
// rules out of the way.
func TestRunUntilDecidedStopsAtFirstDecidingStep(t *testing.T) {
	q := lossyQueue(t)
	cfg := Config{InitialBins: 256, MaxBins: 256, RelGap: 1e-12}
	const steps = 40
	hand, err := NewIterator(q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := make([]float64, steps+1), make([]float64, steps+1)
	lo[0], hi[0] = hand.LossBounds()
	for k := 1; k <= steps; k++ {
		if err := hand.Step(); err != nil {
			t.Fatal(err)
		}
		lo[k], hi[k] = hand.LossBounds()
	}
	if !(lo[20] > lo[5] && hi[20] < hi[5]) {
		t.Fatalf("bounds barely move: [%g, %g] at step 5, [%g, %g] at step 20", lo[5], hi[5], lo[20], hi[20])
	}
	for _, c := range []struct {
		name      string
		threshold float64
	}{
		{"upper clears", hi[20]},
		{"lower clears", math.Nextafter(lo[20], 0)},
		{"decided before any step", 2},
	} {
		want := -1
		for k := 0; k <= steps; k++ {
			if hi[k] <= c.threshold || lo[k] > c.threshold {
				want = k
				break
			}
		}
		if want < 0 {
			t.Fatalf("%s: threshold %g undecided by hand within %d steps", c.name, c.threshold, steps)
		}
		it, err := NewIterator(q, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := it.RunUntilDecided(context.Background(), c.threshold)
		if err != nil {
			t.Fatal(err)
		}
		if res.Iterations != want || !res.Converged || res.Degraded != "" {
			t.Fatalf("%s: stopped after %d iterations (converged %v, degraded %q), want %d, converged",
				c.name, res.Iterations, res.Converged, res.Degraded, want)
		}
		if math.Float64bits(res.Lower) != math.Float64bits(lo[want]) || math.Float64bits(res.Upper) != math.Float64bits(hi[want]) {
			t.Fatalf("%s: bracket [%v, %v], hand-stepped [%v, %v]", c.name, res.Lower, res.Upper, lo[want], hi[want])
		}
	}
}

// TestRunUntilDecidedInsideBracketBitIdentical: a threshold strictly inside
// a cold plain solve's final bracket never decides it early, so the decided
// solve returns the plain Result bit for bit, with and without an Arena.
func TestRunUntilDecidedInsideBracketBitIdentical(t *testing.T) {
	q := lossyQueue(t)
	for _, cfg := range []Config{{}, {RelGap: 0.05, Arena: NewArena()}} {
		plain, err := SolveContext(context.Background(), q, cfg)
		if err != nil {
			t.Fatal(err)
		}
		width := plain.Upper - plain.Lower
		if !(width > 0) {
			t.Fatalf("degenerate plain bracket [%g, %g]", plain.Lower, plain.Upper)
		}
		for _, f := range []float64{0.01, 0.5, 0.99} {
			it, err := NewIterator(q, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := it.RunUntilDecided(context.Background(), plain.Lower+f*width)
			if err != nil {
				t.Fatal(err)
			}
			resultsBitIdentical(t, got, plain, "decided solve")
		}
	}
}
