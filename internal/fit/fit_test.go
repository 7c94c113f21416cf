package fit

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"lrd/internal/api"
	"lrd/internal/traces"
)

// knownTrace synthesizes a lognormal-marginal trace with Hurst parameter h.
func knownTrace(t *testing.T, h float64, bins int) traces.Trace {
	t.Helper()
	tr, err := traces.Synthesize(traces.Config{
		Name: "known", Hurst: h, Bins: bins, BinWidth: 0.01,
		Quantile: traces.LognormalQuantile(1, 0.5),
	}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// csvOf renders rates as the time,rate CSV lrdfit -csv reads, with the
// bin width written verbatim into the header.
func csvOf(binWidth string, rates []float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# name=t binwidth=%s\n", binWidth)
	for i, r := range rates {
		fmt.Fprintf(&b, "%d,%g\n", i, r)
	}
	return b.String()
}

func wantBadRequest(t *testing.T, label string, res *Result, err error) {
	t.Helper()
	var aerr *api.Error
	if !errors.As(err, &aerr) {
		if err == nil {
			t.Fatalf("%s: accepted (epoch=%g, theta=%g)", label, res.MeanEpoch, res.Response.Theta)
		}
		t.Fatalf("%s: untyped error %v", label, err)
	}
	if aerr.Code != api.CodeBadRequest {
		t.Fatalf("%s: code %q (%v), want %q", label, aerr.Code, err, api.CodeBadRequest)
	}
}

// TestTraceRejectsBadInput: every malformed trace or option is a
// bad-request error, whether the trace arrives as lrdfit's CSV or as a
// /v1/fit request.
func TestTraceRejectsBadInput(t *testing.T) {
	good := knownTrace(t, 0.8, 512).Rates
	negative := append([]float64(nil), good...)
	negative[7] = -2.9
	for _, tc := range []struct {
		name     string
		binWidth string
		rates    []float64
		cutoff   float64
	}{
		{"infinite bin width", "+Inf", good, 0},
		{"NaN bin width", "NaN", good, 0},
		{"negative rate", "0.01", negative, 0},
		{"NaN cutoff", "0.01", good, math.NaN()},
		{"infinite cutoff", "0.01", good, math.Inf(1)},
		{"negative cutoff", "0.01", good, -1},
	} {
		tr, err := traces.ReadCSV(strings.NewReader(csvOf(tc.binWidth, tc.rates)))
		if err != nil {
			t.Fatalf("%s: ReadCSV: %v", tc.name, err)
		}
		res, err := Trace(tr, Options{Cutoff: tc.cutoff})
		wantBadRequest(t, tc.name+" (csv)", res, err)

		bw, err := strconv.ParseFloat(tc.binWidth, 64)
		if err != nil {
			t.Fatal(err)
		}
		res, err = Trace(FromRequest(api.FitRequest{Rates: tc.rates, BinWidth: bw, Cutoff: tc.cutoff}))
		wantBadRequest(t, tc.name+" (wire)", res, err)
	}

	// A non-finite rate never gets past ReadCSV or JSON decoding, and the
	// estimator name is an option; check both where Trace sees them.
	for name, req := range map[string]api.FitRequest{
		"non-finite rate":   {Rates: []float64{1, math.Inf(1), 2}, BinWidth: 0.01},
		"unknown estimator": {Rates: good, BinWidth: 0.01, Estimator: "nope"},
	} {
		res, err := Trace(FromRequest(req))
		wantBadRequest(t, name+" (wire)", res, err)
	}
}

// TestTraceKnownHurst: a synthesized H = 0.8 trace fits to finite model
// ingredients with the Hurst estimate near the truth, and the fit rebuilds
// a solvable source.
func TestTraceKnownHurst(t *testing.T) {
	res, err := Trace(knownTrace(t, 0.8, 16384), Options{Cutoff: 1})
	if err != nil {
		t.Fatal(err)
	}
	f := res.Response
	for name, v := range map[string]float64{
		"mean epoch": f.MeanEpoch, "theta": f.Theta, "alpha": f.Alpha, "mean rate": f.MeanRate,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			t.Fatalf("%s = %v, want finite and positive", name, v)
		}
	}
	if f.Hurst < 0.7 || f.Hurst > 0.9 {
		t.Fatalf("H = %v, want within [0.7, 0.9] of the synthesized 0.8", f.Hurst)
	}
	if len(f.Estimates) != 5 {
		t.Fatalf("estimates = %v, want all five estimators reported", f.Estimates)
	}
	if res.Cutoff != 1 {
		t.Fatalf("resolved cutoff = %v, want 1", res.Cutoff)
	}
	if _, err := res.Realize(); err != nil {
		t.Fatalf("Realize: %v", err)
	}
}

// FuzzFitCSV: any CSV that ReadCSV accepts either fails to fit or fits to
// a finite mean epoch and θ over a marginal with non-negative rates.
func FuzzFitCSV(f *testing.F) {
	rates := []float64{1, 2.5, 0.5, 3, 1, 1, 2, 0.25, 4, 1.5, 2, 2}
	f.Add(csvOf("0.01", rates))
	f.Add(csvOf("+Inf", rates))
	f.Add(csvOf("NaN", rates))
	f.Add(csvOf("0.01", append([]float64{-2.9}, rates...)))
	f.Fuzz(func(t *testing.T, csv string) {
		tr, err := traces.ReadCSV(strings.NewReader(csv))
		if err != nil {
			return
		}
		res, err := Trace(tr, Options{})
		if err != nil {
			var aerr *api.Error
			if !errors.As(err, &aerr) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		if e := res.MeanEpoch; math.IsNaN(e) || math.IsInf(e, 0) {
			t.Fatalf("mean epoch %v", e)
		}
		if th := res.Response.Theta; math.IsNaN(th) || math.IsInf(th, 0) {
			t.Fatalf("theta %v", th)
		}
		for i := 0; i < res.Marginal.Len(); i++ {
			if r := res.Marginal.Rate(i); !(r >= 0) {
				t.Fatalf("marginal rate %d = %v", i, r)
			}
		}
	})
}
