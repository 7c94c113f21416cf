package solver

import (
	"context"
	"reflect"
	"testing"

	"lrd/internal/obs"
)

// TestSolveBitIdenticalWithInstrumentation proves the observability layer
// is purely observational: attaching a Recorder and a Trace sink must not
// change a single bit of the solver's output.
func TestSolveBitIdenticalWithInstrumentation(t *testing.T) {
	q, err := fluidModel(onOffSource(t, 2), 0.8, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := SolveModelContext(context.Background(), q, Config{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	var points []TracePoint
	instr, err := SolveModelContext(context.Background(), q, Config{
		Recorder: reg,
		Trace:    func(p TracePoint) { points = append(points, p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, instr) {
		t.Fatalf("instrumented result differs:\nplain %+v\ninstr %+v", plain, instr)
	}
	if len(points) == 0 {
		t.Fatal("trace sink received no points")
	}
	if reg.CounterValue(obs.MetricSolverSolves) != 1 {
		t.Fatalf("solves counter = %v, want 1", reg.CounterValue(obs.MetricSolverSolves))
	}
	if reg.CounterValue(obs.MetricSolverSteps) != float64(instr.Iterations) {
		t.Fatalf("steps counter = %v, iterations = %d",
			reg.CounterValue(obs.MetricSolverSteps), instr.Iterations)
	}
}

// TestTraceMonotoneBounds checks the Prop. II.1 signature on the emitted
// convergence stream: within one solve the lower bounds are non-decreasing
// and the upper bounds non-increasing, across Refine events included.
func TestTraceMonotoneBounds(t *testing.T) {
	q, err := fluidModel(videoSource(t, 3), 0.8, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	var points []TracePoint
	res, err := SolveModelContext(context.Background(), q, Config{
		Trace: func(p TracePoint) { points = append(points, p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) < 2 {
		t.Fatalf("only %d trace points", len(points))
	}
	id := points[0].Solve
	refines := 0
	for i, p := range points {
		if p.Solve != id {
			t.Fatalf("point %d: solve id %d, want %d", i, p.Solve, id)
		}
		if i == 0 {
			continue
		}
		prev := points[i-1]
		if p.Iteration < prev.Iteration {
			t.Fatalf("iteration went backwards at point %d: %d -> %d", i, prev.Iteration, p.Iteration)
		}
		if p.Lower < prev.Lower {
			t.Fatalf("lower bound decreased at iter %d: %v -> %v", p.Iteration, prev.Lower, p.Lower)
		}
		if p.Upper > prev.Upper {
			t.Fatalf("upper bound increased at iter %d: %v -> %v", p.Iteration, prev.Upper, p.Upper)
		}
		if p.Bins > prev.Bins {
			refines++
		}
	}
	last := points[len(points)-1]
	if !last.Final {
		t.Fatal("last trace point not marked final")
	}
	// The trace emits the running envelope (tightest bracket so far), so
	// its final point can only be equal to or tighter than the raw result
	// bounds — and must itself still be a well-ordered bracket.
	if last.Lower > last.Upper {
		t.Fatalf("final point is not a bracket: (%v, %v)", last.Lower, last.Upper)
	}
	const tol = 1e-9
	if last.Lower < res.Lower*(1-tol) || last.Upper > res.Upper*(1+tol) {
		t.Fatalf("final point (%v, %v) looser than result bounds (%v, %v)",
			last.Lower, last.Upper, res.Lower, res.Upper)
	}
	if refines == 0 {
		t.Log("note: solve converged without refinement; monotonicity across Refine untested here")
	}
}

// TestSolveIDsDistinguishConcurrentSolves: each solve's trace carries a
// process-unique id so interleaved JSONL streams can be separated.
func TestSolveIDsDistinguishConcurrentSolves(t *testing.T) {
	q, err := fluidModel(onOffSource(t, 1), 0.8, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	ids := map[uint64]bool{}
	for i := 0; i < 3; i++ {
		var first *TracePoint
		_, err := SolveModelContext(context.Background(), q, Config{
			Trace: func(p TracePoint) {
				if first == nil {
					first = &p
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			t.Fatal("no trace points")
		}
		if ids[first.Solve] {
			t.Fatalf("duplicate solve id %d", first.Solve)
		}
		ids[first.Solve] = true
	}
}

// TestDegradedSolveRecordsReason: a budget-limited solve shows up in the
// labeled degraded counter and still emits a final trace point.
func TestDegradedSolveRecordsReason(t *testing.T) {
	q, err := fluidModel(videoSource(t, 3), 0.8, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	sawFinal := false
	res, err := SolveModelContext(context.Background(), q, Config{
		MaxIterations: 5,
		Recorder:      reg,
		Trace:         func(p TracePoint) { sawFinal = p.Final },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded == "" {
		t.Fatal("want degraded result with MaxIterations = 5")
	}
	name := obs.Labeled(obs.MetricSolverDegraded, "reason", string(res.Degraded))
	if reg.CounterValue(name) != 1 {
		t.Fatalf("degraded counter %q = %v, want 1", name, reg.CounterValue(name))
	}
	if !sawFinal {
		t.Fatal("no final trace point on degraded exit")
	}
}

// TestRelativeGapZeroWhenBothBoundsZero is the regression test for the
// NaN-at-zero bug: a solve deep in the zero-loss regime has Lower ==
// Upper == 0 and must report a zero (converged) gap, not NaN.
func TestRelativeGapZeroWhenBothBoundsZero(t *testing.T) {
	r := Result{Lower: 0, Upper: 0}
	if g := r.RelativeGap(); g != 0 {
		t.Fatalf("RelativeGap() = %v, want 0", g)
	}
	// Sanity: a normal bracket still reports its midpoint-relative width.
	r = Result{Lower: 1, Upper: 3}
	if g := r.RelativeGap(); g != 1 {
		t.Fatalf("RelativeGap() = %v, want 1", g)
	}
}
