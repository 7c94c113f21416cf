package solver

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"

	"lrd/internal/faultinject"
)

// concurrentBins is a resolution at which Step offers the upper chain to a
// helper.
const concurrentBins = 2 * concurrentStepMinBins

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// concurrentIterator builds an iterator at M = concurrentBins and steps it
// until both occupancy vectors are dense.
func concurrentIterator(t *testing.T, arena *Arena) *Iterator {
	t.Helper()
	q, ok := randomModel(5)
	if !ok {
		t.Fatal("randomModel(5) invalid")
	}
	it, err := NewModelIterator(q.Model(), Config{
		InitialBins: concurrentBins, MaxBins: concurrentBins, MaxIterations: 10000, Arena: arena,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := it.Step(); err != nil {
			t.Fatal(err)
		}
	}
	return it
}

// maxHandOffSteps bounds how long a test steps while waiting for a helper
// to start an offered chain before the stepping goroutine reclaims it.
const maxHandOffSteps = 500

// canHandOff reports whether a helper can run at all: GOMAXPROCS = 1
// never starts one, so there both chains always run inline.
func canHandOff() bool { return runtime.GOMAXPROCS(0) >= 2 }

// handedOff reports whether a helper ran the upper chain of its last
// step; the stepping goroutine returns a chain it reclaims to chainFree.
func handedOff(it *Iterator) bool {
	return it.scratch != nil && it.scratch.handOff.state.Load() == chainTaken
}

// onStepHelper reports whether the calling goroutine is a step helper.
func onStepHelper() bool {
	var buf [8 << 10]byte
	return bytes.Contains(buf[:runtime.Stack(buf[:], false)], []byte("solver.stepHelper("))
}

// TestConcurrentStepBitIdentical: at a resolution where the upper chain is
// offered to a helper, every step's occupancy vectors equal, bitwise, the
// sequential Lindley step applied to copies of the previous state, with
// and without an arena. With the arena the test steps until a helper has
// run at least one upper chain.
func TestConcurrentStepBitIdentical(t *testing.T) {
	for _, arena := range []*Arena{nil, NewArena()} {
		it := concurrentIterator(t, arena)
		handOffs := 0
		for step := 0; step < 12 || (arena != nil && canHandOff() && handOffs == 0); step++ {
			if step == maxHandOffSteps {
				t.Fatalf("no helper ran an upper chain in %d steps", step)
			}
			m := it.Bins()
			wantL, _ := lindleyStepInto(append([]float64(nil), it.ql...), it.wl, m, nil, nil)
			wantH, _ := lindleyStepInto(append([]float64(nil), it.qh...), it.wh, m, nil, nil)
			if err := it.Step(); err != nil {
				t.Fatal(err)
			}
			if handedOff(it) {
				handOffs++
			}
			if !sameFloats(it.ql, wantL) {
				t.Fatalf("arena=%v step %d: lower occupancy differs from the sequential step", arena != nil, step)
			}
			if !sameFloats(it.qh, wantH) {
				t.Fatalf("arena=%v step %d: upper occupancy differs from the sequential step", arena != nil, step)
			}
		}
	}
}

// TestConcurrentStepAllocations is TestArenaStepAllocations at a resolution
// where the upper chain is offered to a helper: steps in which a helper ran
// it allocate nothing. testing.AllocsPerRun would pin GOMAXPROCS to 1,
// where a helper rarely starts a chain before the stepping goroutine
// reclaims it, so the test counts mallocs itself.
func TestConcurrentStepAllocations(t *testing.T) {
	if !canHandOff() {
		t.Skip("needs GOMAXPROCS >= 2 to start a step helper")
	}
	it := concurrentIterator(t, NewArena())
	step := func() {
		if err := it.Step(); err != nil {
			t.Fatal(err)
		}
	}
	// Warm up until a helper exists and has run a chain.
	for i := 0; !handedOff(it); i++ {
		if i == maxHandOffSteps {
			t.Fatalf("no helper ran an upper chain in %d steps", i)
		}
		step()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	steps, handOffs := 0, 0
	for ; steps < 20 || handOffs == 0; steps++ {
		if steps == maxHandOffSteps {
			t.Fatalf("no helper ran an upper chain in %d steps", steps)
		}
		step()
		if handedOff(it) {
			handOffs++
		}
	}
	runtime.ReadMemStats(&after)
	// Averaged as AllocsPerRun does, in whole objects per step: blocking
	// on a helper can take a runtime sudog when the P's cache is empty, and
	// a GC cycle allocates on its own, but a per-step allocation counts 1.
	if n := (after.Mallocs - before.Mallocs) / uint64(steps); n > 0 {
		t.Fatalf("%d steps, %d of them handed off, allocated %d objects/step, want 0", steps, handOffs, n)
	}
}

// TestConcurrentSolvesShareArena: eight solves stepping their chains
// concurrently, all borrowing from one Arena, give bit-for-bit the results
// of the same solves run one at a time. The solves outnumber the cores, so
// how many chains helpers start is up to the scheduler; the per-step tests
// above make sure some do.
func TestConcurrentSolvesShareArena(t *testing.T) {
	var queues []Queue
	for seed := int64(1); len(queues) < 8; seed++ {
		if q, ok := randomModel(seed); ok {
			queues = append(queues, q)
		}
	}
	cfg := Config{InitialBins: concurrentStepMinBins, MaxBins: concurrentStepMinBins, MaxIterations: 20}
	want := make([]Result, len(queues))
	for i, q := range queues {
		res, err := SolveModel(q.Model(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	cfg.Arena = NewArena()
	got := make([]Result, len(queues))
	errs := make([]error, len(queues))
	var wg sync.WaitGroup
	for i, q := range queues {
		wg.Add(1)
		go func(i int, q Queue) {
			defer wg.Done()
			got[i], errs[i] = SolveModel(q.Model(), cfg)
		}(i, q)
	}
	wg.Wait()
	for i := range queues {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		g, w := got[i], want[i]
		if !sameFloats([]float64{g.Loss, g.Lower, g.Upper, g.GridStep}, []float64{w.Loss, w.Lower, w.Upper, w.GridStep}) ||
			g.Bins != w.Bins || g.Iterations != w.Iterations || g.Converged != w.Converged ||
			!sameFloats(g.LowerOccupancy, w.LowerOccupancy) || !sameFloats(g.UpperOccupancy, w.UpperOccupancy) {
			t.Fatalf("solve %d: concurrent result differs from the serial one:\n got %+v\nwant %+v", i, g, w)
		}
	}
}

// faultOnHelper arms fault at the convolution point for chains that run on
// a step helper, which only ever runs upper chains.
func faultOnHelper(fault func(xs []float64)) {
	faultinject.Arm(faultinject.SolverConvolution, func(xs []float64) {
		if onStepHelper() {
			fault(xs)
		}
	})
}

// TestConcurrentStepNaNInHandedOffChain: a NaN injected into the chain run
// on the helper surfaces as a not-finite numeric error from Step, and the
// iterator keeps its last healthy state. Steps in which the stepping
// goroutine reclaims the upper chain inject nothing and succeed.
func TestConcurrentStepNaNInHandedOffChain(t *testing.T) {
	if !canHandOff() {
		t.Skip("needs GOMAXPROCS >= 2 to start a step helper")
	}
	defer faultinject.Reset()
	it := concurrentIterator(t, NewArena())
	faultOnHelper(func(xs []float64) { xs[len(xs)/2] = math.NaN() })
	for i := 0; ; i++ {
		if i == maxHandOffSteps {
			t.Fatalf("no helper ran an upper chain in %d steps", i)
		}
		ql, qh := it.LowerOccupancy(), it.UpperOccupancy()
		lo, hi := it.LossBounds()
		iters := it.Iterations()
		stepErr := it.Step()
		if !handedOff(it) {
			if stepErr != nil {
				t.Fatalf("step %d without a fault: %v", i, stepErr)
			}
			continue
		}
		var ne *NumericError
		if !errors.As(stepErr, &ne) || ne.Kind != HealthNotFinite {
			t.Fatalf("want a %v error, got %v", HealthNotFinite, stepErr)
		}
		gotLo, gotHi := it.LossBounds()
		if !sameFloats(it.ql, ql) || !sameFloats(it.qh, qh) || gotLo != lo || gotHi != hi || it.Iterations() != iters {
			t.Fatal("failed step changed the iterator state")
		}
		break
	}
	faultinject.Reset()
	if err := it.Step(); err != nil {
		t.Fatalf("step after the fault: %v", err)
	}
}

// TestConcurrentStepPanicReachesCaller: a panic in the handed-off chain is
// raised again in the goroutine that called Step.
func TestConcurrentStepPanicReachesCaller(t *testing.T) {
	if !canHandOff() {
		t.Skip("needs GOMAXPROCS >= 2 to start a step helper")
	}
	defer faultinject.Reset()
	it := concurrentIterator(t, NewArena())
	faultOnHelper(func([]float64) { panic("upper chain fault") })
	step := func() (recovered any) {
		defer func() { recovered = recover() }()
		if err := it.Step(); err != nil {
			t.Fatal(err)
		}
		return nil
	}
	for i := 0; ; i++ {
		if i == maxHandOffSteps {
			t.Fatalf("no helper ran an upper chain in %d steps", i)
		}
		if r := step(); r != nil {
			if r != "upper chain fault" {
				t.Fatalf("recovered %v, want the upper chain's panic", r)
			}
			return
		}
	}
}

// TestReclaimedChainRunsOnce: a helper that receives a chain after the
// stepping goroutine reclaimed it, or after the record was offered again,
// leaves it alone unless it wins the claim, so every offer runs exactly
// once.
func TestReclaimedChainRunsOnce(t *testing.T) {
	var c chainStep
	c.runOnHelper() // a stale delivery of a reclaimed chain
	if c.state.Load() != chainFree || c.out != nil {
		t.Fatal("helper ran a chain that was not on offer")
	}
	c.done.Add(1)
	c.state.Store(chainOffered)
	if !c.reclaim() {
		t.Fatal("could not reclaim an offered chain")
	}
	if c.reclaim() {
		t.Fatal("reclaimed a chain twice")
	}
	c.runOnHelper()
	if c.state.Load() != chainFree {
		t.Fatal("helper took a reclaimed chain")
	}
	c.done.Wait() // the reclaim balanced the offer
}
