package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"os"
	"testing"
	"time"

	"lrd/internal/core"
)

// TestCatalogueMatchesBenchmarkJSON: the metrics the program reports are
// exactly the ones BENCHMARK.json declares, with the same units.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
}

// TestResultEmitsEveryMetricWithUnit: the final line carries every metric
// of the run's kind with its declared unit, and refuses a run that missed
// one or measured a non-finite value.
func TestResultEmitsEveryMetricWithUnit(t *testing.T) {
	for _, traced := range []bool{false, true} {
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		r := newRun("sweep", 1, time.Second, traced)
		r.ops(1, 0)
		for i, d := range defs {
			r.set(d.Name, float64(i)+0.5)
		}
		res, err := r.result()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Attempted != 1 || len(res.Metrics) != len(defs) {
			t.Fatalf("traced=%v: %+v", traced, res)
		}
		for i, d := range defs {
			if got := res.Metrics[d.Name]; got.Unit != d.Unit || got.Value != float64(i)+0.5 {
				t.Errorf("traced=%v: %s = %+v, want unit %s", traced, d.Name, got, d.Unit)
			}
		}
		r.set(defs[0].Name, math.NaN())
		if _, err := r.result(); err == nil {
			t.Errorf("traced=%v: a NaN metric was reported", traced)
		}
		delete(r.metrics, defs[0].Name)
		if _, err := r.result(); err == nil {
			t.Errorf("traced=%v: a missing metric was not refused", traced)
		}
	}
}

// sweepFixture is a converged 3×2 grid whose bounds fall with buffer.
func sweepFixture() ([]core.Point, []float64, []float64) {
	buffers, cutoffs := []float64{0.1, 0.2, 0.3}, []float64{1, 10}
	var pts []core.Point
	for i, b := range buffers {
		for _, c := range cutoffs {
			loss := 0.1 / float64(i+1)
			pts = append(pts, core.Point{NormalizedBuffer: b, Cutoff: c, Lower: loss * 0.98, Loss: loss, Upper: loss * 1.02, Converged: true})
		}
	}
	return pts, buffers, cutoffs
}

func TestSweepGates(t *testing.T) {
	pts, buffers, cutoffs := sweepFixture()
	r := newRun("sweep", 1, time.Second, false)
	if bad := checkSweep(r, pts, buffers, cutoffs); bad != 0 {
		t.Fatalf("clean grid: %d bad cells, gates %v", bad, r.gates)
	}
	corrupt := map[string]func([]core.Point){
		"swapped bracket":   func(p []core.Point) { p[3].Lower, p[3].Upper = p[3].Upper, p[3].Lower },
		"not converged":     func(p []core.Point) { p[0].Converged = false },
		"rising in buffer":  func(p []core.Point) { p[4].Lower, p[4].Upper = 0.5, 0.6 },
		"wrong coordinates": func(p []core.Point) { p[1].Cutoff = 3 },
		"missing cell":      nil,
	}
	for name, f := range corrupt {
		pts, buffers, cutoffs := sweepFixture()
		if f == nil {
			pts = pts[:len(pts)-1]
		} else {
			f(pts)
		}
		r := newRun("sweep", 1, time.Second, false)
		bad := checkSweep(r, pts, buffers, cutoffs)
		r.ops(len(buffers)*len(cutoffs), bad)
		if res, _ := r.result(); bad == 0 || res.Correct {
			t.Errorf("%s: passed the gates", name)
		}
	}
}

func TestProvisionGates(t *testing.T) {
	good := core.Provisioned{Value: 0.47, Loss: 0.0499, Bracket: 0.468, BracketLoss: 0.0506}
	if !checkProvision(newRun("provision", 1, time.Second, false), good) {
		t.Fatal("a valid root-find failed the gates")
	}
	swapped := good
	swapped.Loss, swapped.BracketLoss = good.BracketLoss, good.Loss
	wide := good
	wide.Bracket = 0.4
	for name, p := range map[string]core.Provisioned{"swapped bracket": swapped, "bracket wider than tol": wide} {
		if checkProvision(newRun("provision", 1, time.Second, false), p) {
			t.Errorf("%s: passed the gates", name)
		}
	}
}

func TestServeGates(t *testing.T) {
	fill := []byte(`{"loss":0.1,"lower":0.09,"upper":0.11,"relative_gap":0.2,"bins":128,"iterations":10,"converged":true,"grid_step":0.01,"key":"k"}`)
	ok := response{status: http.StatusOK, disposition: "hit", body: fill}
	if !checkReply(newRun("serve", 1, time.Second, false), ok, true, fill) {
		t.Fatal("a valid hit failed the gates")
	}
	wrong := []byte(`{"loss":0.1,"lower":0.12,"upper":0.11,"key":"k"}`)
	cases := map[string]struct {
		o   response
		hot bool
	}{
		"bounds out of order": {response{status: http.StatusOK, disposition: "miss", body: wrong}, false},
		"hit differs from fill": {response{status: http.StatusOK, disposition: "hit",
			body: []byte(`{"loss":0.1,"lower":0.09,"upper":0.11,"key":"other"}`)}, true},
		"hot key missed": {response{status: http.StatusOK, disposition: "miss", body: fill}, true},
		"shed":           {response{status: http.StatusTooManyRequests, body: []byte(`{"error":"overloaded"}`)}, false},
		"transport":      {response{err: errors.New("connection reset")}, false},
	}
	for name, c := range cases {
		if checkReply(newRun("serve", 1, time.Second, false), c.o, c.hot, fill) {
			t.Errorf("%s: passed the gates", name)
		}
	}
}

// TestGeneratorBehind: a generator that cannot keep to its schedule is
// detected, and one that can is not.
func TestGeneratorBehind(t *testing.T) {
	sched := make([]serveReq, 200)
	for i := range sched {
		sched[i].due = time.Duration(i) * time.Millisecond
	}
	if late := openLoop(sched, time.Now(), func(int) {}); behind(late) {
		t.Errorf("an idle generator was flagged: max late %v", late[len(late)-1])
	}
	slow := openLoop(sched[:50], time.Now(), func(int) { time.Sleep(3 * time.Millisecond) })
	if !behind(slow) {
		t.Errorf("a generator running 3× slower than its schedule was not flagged")
	}
}

// TestInvalidRunIsNotReported: a workload that returns errBehind makes the
// benchmark fail without printing a result line.
func TestInvalidRunIsNotReported(t *testing.T) {
	workloads["behind"] = func(context.Context, *run) error { return errBehind }
	defer delete(workloads, "behind")
	rd, wr, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = wr
	runErr := mainErr([]string{"--workload", "behind", "--seconds", "1"})
	os.Stdout = stdout
	wr.Close()
	out, _ := io.ReadAll(rd)
	if !errors.Is(runErr, errBehind) || len(out) != 0 {
		t.Errorf("err %v, stdout %q: want errBehind and no output", runErr, out)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for q, want := range map[float64]float64{0: 1, 0.5: 3, 0.25: 2, 1: 5, 0.9: 4.6} {
		if got := quantile(xs, q); math.Abs(got-want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of nothing is not NaN")
	}
}
