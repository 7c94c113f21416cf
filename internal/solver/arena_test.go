package solver

import (
	"context"
	"math"
	"sort"
	"testing"
)

// resultsBitIdentical compares two Results field by field, requiring bitwise
// equality of every float (including the occupancy vectors).
func resultsBitIdentical(t *testing.T, got, want Result, label string) {
	t.Helper()
	f64 := func(name string, g, w float64) {
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: %s = %v (%x), want %v (%x)", label, name, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
	f64("Loss", got.Loss, want.Loss)
	f64("Lower", got.Lower, want.Lower)
	f64("Upper", got.Upper, want.Upper)
	f64("GridStep", got.GridStep, want.GridStep)
	if got.Bins != want.Bins || got.Iterations != want.Iterations ||
		got.Converged != want.Converged || got.Degraded != want.Degraded {
		t.Fatalf("%s: diagnostics (bins %d/%d, iters %d/%d, conv %v/%v, degraded %q/%q)",
			label, got.Bins, want.Bins, got.Iterations, want.Iterations,
			got.Converged, want.Converged, got.Degraded, want.Degraded)
	}
	if len(got.LowerOccupancy) != len(want.LowerOccupancy) || len(got.UpperOccupancy) != len(want.UpperOccupancy) {
		t.Fatalf("%s: occupancy lengths (%d/%d, %d/%d)", label,
			len(got.LowerOccupancy), len(want.LowerOccupancy), len(got.UpperOccupancy), len(want.UpperOccupancy))
	}
	for j := range got.LowerOccupancy {
		f64("LowerOccupancy", got.LowerOccupancy[j], want.LowerOccupancy[j])
	}
	for j := range got.UpperOccupancy {
		f64("UpperOccupancy", got.UpperOccupancy[j], want.UpperOccupancy[j])
	}
}

// solveAscending solves models in ascending-buffer order through one shared
// Arena, seeding each solve from its predecessor's result when warm, and
// returns the results in input order.
func solveAscending(t *testing.T, models []Model, cfg Config, warm bool) []Result {
	t.Helper()
	cfg.Arena = NewArena()
	order := make([]int, len(models))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return models[order[a]].Buffer < models[order[b]].Buffer })
	out := make([]Result, len(models))
	var seed *Seed
	for _, i := range order {
		r, err := solveSeeded(models[i], cfg, seed)
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		out[i] = r
		if warm {
			seed = SeedFromResult(models[i], r)
		}
	}
	return out
}

// TestBatchSolveBitIdentical is the exact-mode contract: solving through a
// shared Arena — with its pooled FFT workspaces, recycled step buffers, and
// ladder-table reuse — produces Results bit-identical to the plain per-cell
// path, across random models solved back to back so later cells run on
// recycled buffers from earlier ones.
func TestBatchSolveBitIdentical(t *testing.T) {
	cfgs := []Config{
		{InitialBins: 64, MaxBins: 1024, MaxIterations: 10000},
		{InitialBins: 32, MaxBins: 512, RelGap: 0.05, MaxIterations: 10000},
	}
	for ci, base := range cfgs {
		shared := base
		shared.Arena = NewArena()
		for seed := int64(1); seed <= 10; seed++ {
			q, ok := randomModel(seed)
			if !ok {
				continue
			}
			want, err := SolveModelContext(context.Background(), q, base)
			if err != nil {
				t.Fatalf("cfg %d seed %d: cold solve: %v", ci, seed, err)
			}
			got, err := SolveModelContext(context.Background(), q, shared)
			if err != nil {
				t.Fatalf("cfg %d seed %d: arena solve: %v", ci, seed, err)
			}
			resultsBitIdentical(t, got, want, "arena vs cold")
		}
	}
}

// TestBatchSolveAllExactMatchesPerCell: cold solves of an ascending-buffer
// grid through one shared Arena equal standalone arena-less per-cell solves
// bitwise, cell by cell in input order.
func TestBatchSolveAllExactMatchesPerCell(t *testing.T) {
	q, ok := randomModel(3)
	if !ok {
		t.Fatal("randomModel(3) invalid")
	}
	cfg := Config{InitialBins: 64, MaxBins: 1024, MaxIterations: 10000}
	var models []Model
	for _, scale := range []float64{2.0, 0.5, 1.0, 1.5} { // deliberately unsorted
		m := q
		m.Buffer *= scale
		models = append(models, m)
	}
	got := solveAscending(t, models, cfg, false)
	for i, m := range models {
		want, err := SolveModelContext(context.Background(), m, cfg)
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		resultsBitIdentical(t, got[i], want, "shared arena vs per cell")
	}
}

// TestArenaStepAllocations: with an Arena, the steady-state Lindley step
// should allocate far less than the allocating path (ideally nothing; the
// recorder-nil hot path is the one that matters).
func TestArenaStepAllocations(t *testing.T) {
	q, ok := randomModel(5)
	if !ok {
		t.Fatal("randomModel(5) invalid")
	}
	cfg := Config{InitialBins: 512, MaxBins: 512, MaxIterations: 10000, Arena: NewArena()}
	it, err := NewModelIterator(q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // warm up scratch buffers
		if err := it.Step(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := it.Step(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("arena-backed Step allocates %v objects/op, want 0", allocs)
	}
}
