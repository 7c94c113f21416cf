package solver

import (
	"context"
	"math"
	"testing"
	"time"

	"lrd/internal/obs"
)

var warmTestCfg = Config{InitialBins: 64, MaxBins: 1024, MaxIterations: 10000}

// solveSeeded runs a warm-started solve to completion.
func solveSeeded(m Model, cfg Config, seed *Seed) (Result, error) {
	it, err := NewModelIteratorSeeded(m, cfg, seed)
	if err != nil {
		return Result{}, err
	}
	return it.RunContext(context.Background())
}

// TestWarmSeedBracketValid is the core warm-start property: across random
// sources, a solve seeded from its smaller-buffer neighbor still produces a
// valid bracket — the warm bracket and the cold bracket for the same cell
// both contain the true loss, so they must intersect. The bound-order
// watchdog additionally verifies lower <= upper at every warm step.
func TestWarmSeedBracketValid(t *testing.T) {
	tried := 0
	for seed := int64(1); seed <= 30 && tried < 12; seed++ {
		q, ok := randomModel(seed)
		if !ok {
			continue
		}
		tried++
		small := q
		large := q
		large.Buffer *= 1.0 + 0.25*float64(seed%4+1) // Δ > 0 in [25%,100%]

		base, err := SolveModelContext(context.Background(), small, warmTestCfg)
		if err != nil {
			t.Fatalf("seed %d: neighbor solve: %v", seed, err)
		}
		ws := SeedFromResult(small, base)
		if ws == nil {
			t.Fatalf("seed %d: SeedFromResult returned nil for a solver result", seed)
		}

		cold, err := SolveModelContext(context.Background(), large, warmTestCfg)
		if err != nil {
			t.Fatalf("seed %d: cold solve: %v", seed, err)
		}
		warm, err := solveSeeded(large, warmTestCfg, ws)
		if err != nil {
			t.Fatalf("seed %d: warm solve: %v", seed, err)
		}
		if !warm.Converged && !cold.Converged {
			continue // both degraded; brackets are still checked below
		}
		// Both brackets contain the true loss, so they must overlap (up to
		// the watchdog's own fp tolerance).
		maxLo := math.Max(cold.Lower, warm.Lower)
		minHi := math.Min(cold.Upper, warm.Upper)
		if maxLo > minHi*(1+1e-6)+1e-15 {
			t.Fatalf("seed %d: warm and cold brackets disjoint: cold [%g,%g], warm [%g,%g]",
				seed, cold.Lower, cold.Upper, warm.Lower, warm.Upper)
		}
	}
	if tried < 5 {
		t.Fatalf("only %d valid random models; generator drifted", tried)
	}
}

// TestWarmSeedSameBuffer: Δ = 0 re-seeding (same cell solved again from its
// own stationary vectors) is valid and converges almost immediately.
func TestWarmSeedSameBuffer(t *testing.T) {
	q, ok := randomModel(7)
	if !ok {
		t.Fatal("randomModel(7) invalid")
	}
	m := q
	cold, err := SolveModelContext(context.Background(), m, warmTestCfg)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := solveSeeded(m, warmTestCfg, SeedFromResult(m, cold))
	if err != nil {
		t.Fatalf("re-seeded solve: %v", err)
	}
	if cold.Converged && !warm.Converged {
		t.Fatalf("re-seeded solve did not converge (degraded %q)", warm.Degraded)
	}
	if warm.Iterations > cold.Iterations {
		t.Fatalf("re-seeded solve took %d iterations, cold took %d — warm start made it worse",
			warm.Iterations, cold.Iterations)
	}
	maxLo := math.Max(cold.Lower, warm.Lower)
	minHi := math.Min(cold.Upper, warm.Upper)
	if maxLo > minHi*(1+1e-6)+1e-15 {
		t.Fatalf("brackets disjoint: cold [%g,%g], warm [%g,%g]",
			cold.Lower, cold.Upper, warm.Lower, warm.Upper)
	}
}

// TestWarmSeedRejection: incompatible seeds (wrong service rate, descending
// buffer, corrupt mass) fall back to a solve bit-identical to cold and count
// a warm rejection.
func TestWarmSeedRejection(t *testing.T) {
	q, ok := randomModel(11)
	if !ok {
		t.Fatal("randomModel(11) invalid")
	}
	m := q
	base, err := SolveModelContext(context.Background(), m, warmTestCfg)
	if err != nil {
		t.Fatal(err)
	}
	good := SeedFromResult(m, base)

	bad := []struct {
		name   string
		mutate func(s Seed) Seed
	}{
		{"service rate mismatch", func(s Seed) Seed { s.ServiceRate *= 1.5; return s }},
		{"descending buffer", func(s Seed) Seed { s.Buffer = m.Buffer * 2; return s }},
		{"mass deficit", func(s Seed) Seed {
			lo := append([]float64(nil), s.Lower...)
			lo[0] += 0.5 // breaks unit mass
			s.Lower = lo
			return s
		}},
	}
	cold, err := SolveModelContext(context.Background(), m, warmTestCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range bad {
		s := tc.mutate(*good)
		reg := obs.NewRegistry()
		cfg := warmTestCfg
		cfg.Recorder = reg
		got, err := solveSeeded(m, cfg, &s)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if reg.CounterValue(obs.MetricSolverWarmRejected) != 1 {
			t.Fatalf("%s: warm_rejected = %v, want 1", tc.name,
				reg.CounterValue(obs.MetricSolverWarmRejected))
		}
		if reg.CounterValue(obs.MetricSolverWarmSolves) != 0 {
			t.Fatalf("%s: warm_solves = %v, want 0", tc.name,
				reg.CounterValue(obs.MetricSolverWarmSolves))
		}
		resultsBitIdentical(t, got, cold, tc.name)
	}

	// And the nil seed: a plain cold solve, no rejection counted.
	reg := obs.NewRegistry()
	cfg := warmTestCfg
	cfg.Recorder = reg
	got, err := solveSeeded(m, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if reg.CounterValue(obs.MetricSolverWarmRejected) != 0 {
		t.Fatalf("nil seed counted a rejection")
	}
	resultsBitIdentical(t, got, cold, "nil seed")
}

// TestSeedFromResultNil: results without usable occupancy vectors (journal
// adoptions) yield no seed.
func TestSeedFromResultNil(t *testing.T) {
	q, ok := randomModel(13)
	if !ok {
		t.Fatal("randomModel(13) invalid")
	}
	m := q
	r, err := SolveModelContext(context.Background(), m, warmTestCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(r Result) Result
	}{
		{"no occupancy", func(r Result) Result { r.LowerOccupancy, r.UpperOccupancy = nil, nil; return r }},
		{"length mismatch", func(r Result) Result { r.LowerOccupancy = r.LowerOccupancy[:r.Bins]; return r }},
		{"zero step", func(r Result) Result { r.GridStep = 0; return r }},
	} {
		if s := SeedFromResult(m, tc.mutate(r)); s != nil {
			t.Fatalf("%s: expected nil seed", tc.name)
		}
	}
}

// TestWarmSolveAllDeterministic: two warm ascending-buffer chains over the
// same grid produce bitwise-identical results, and warm metrics record the
// chains.
func TestWarmSolveAllDeterministic(t *testing.T) {
	q, ok := randomModel(17)
	if !ok {
		t.Fatal("randomModel(17) invalid")
	}
	var models []Model
	for _, scale := range []float64{1.5, 0.75, 1.0, 2.0, 1.25} { // unsorted on purpose
		m := q
		m.Buffer *= scale
		models = append(models, m)
	}
	run := func() []Result {
		reg := obs.NewRegistry()
		cfg := warmTestCfg
		cfg.Recorder = reg
		out := solveAscending(t, models, cfg, true)
		if got := reg.CounterValue(obs.MetricSolverWarmSolves); got != float64(len(models)-1) {
			t.Fatalf("warm_solves = %v, want %d (all but the chain head)", got, len(models)-1)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		resultsBitIdentical(t, a[i], b[i], "warm determinism")
	}
}

// TestWarmChainIterationProfile measures the speedup signal: total Lindley
// iterations (and wall time) for a 32-cell ascending-buffer column solved
// cold per cell vs warm-chained. Logged for inspection; asserts only that
// warm does strictly less total iteration work.
func TestWarmChainIterationProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("profile run")
	}
	q, ok := randomModel(2)
	if !ok {
		t.Fatal("randomModel(2) invalid")
	}
	var models []Model
	for i := 0; i < 32; i++ {
		m := q
		m.Buffer *= 1.0 + 0.025*float64(i)
		models = append(models, m)
	}
	coldStart := time.Now()
	coldRes := solveAscending(t, models, warmTestCfg, false)
	coldDur := time.Since(coldStart)

	warmStart := time.Now()
	warmRes := solveAscending(t, models, warmTestCfg, true)
	warmDur := time.Since(warmStart)

	coldIters, warmIters := 0, 0
	for i := range models {
		coldIters += coldRes[i].Iterations
		warmIters += warmRes[i].Iterations
		maxLo := math.Max(coldRes[i].Lower, warmRes[i].Lower)
		minHi := math.Min(coldRes[i].Upper, warmRes[i].Upper)
		if maxLo > minHi*(1+1e-6)+1e-15 {
			t.Fatalf("cell %d: brackets disjoint: cold [%g,%g], warm [%g,%g]",
				i, coldRes[i].Lower, coldRes[i].Upper, warmRes[i].Lower, warmRes[i].Upper)
		}
	}
	t.Logf("cold: %d iters in %v; warm: %d iters in %v (iter ratio %.2fx, time ratio %.2fx)",
		coldIters, coldDur, warmIters, warmDur,
		float64(coldIters)/float64(warmIters), float64(coldDur)/float64(warmDur))
	if warmIters >= coldIters {
		t.Fatalf("warm chain did %d total iterations, cold did %d — warm starts save nothing",
			warmIters, coldIters)
	}
}
