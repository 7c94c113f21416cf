// Package fit is the trace→model pipeline: it turns a binned rate trace
// into the paper's fitted queue description — §III's recipe end to end
// (histogram marginal, mean-epoch θ calibration, Hurst estimation with
// every estimator reporting independently) — packaged as the /v1/fit wire
// response so the lrdfit CLI and the lrdserve endpoint share one
// implementation. The output plugs directly into a solve or provision
// request; Reference and Realize rebuild the solvable source locally.
package fit

import (
	"fmt"
	"math"

	"lrd/internal/api"
	"lrd/internal/dist"
	"lrd/internal/fluid"
	"lrd/internal/lrdest"
	"lrd/internal/source"
	"lrd/internal/traces"
)

// DefaultBins is the paper's histogram resolution ("We set the number of
// bins to 50 in all experiments").
const DefaultBins = 50

// Hurst estimates are clamped into this range before deriving α = 3−2H:
// the fluid model's tail index must stay inside (1, 2). The raw estimate is
// reported unclamped so the clamp is always visible.
const (
	MinHurst = 0.51
	MaxHurst = 0.99
)

// Options tunes the fit.
type Options struct {
	// Bins is the histogram resolution for the marginal and the mean-epoch
	// extraction. 0 means DefaultBins.
	Bins int
	// Estimator picks the Hurst estimate: aggvar, rs, whittle, wavelet,
	// gph, or "" / "median" for the median of the estimators that
	// succeeded.
	Estimator string
	// Hurst, when > 0, overrides estimation (estimates are still computed
	// and reported as diagnostics).
	Hurst float64
	// Cutoff is the correlation cutoff lag Tc in seconds carried by the
	// fitted source; 0 means infinite.
	Cutoff float64
	// Model is the registry model the fitted spec targets (zero value =
	// fluid).
	Model source.Spec
}

// Result is a completed fit: the wire response plus the parsed ingredients
// a local caller needs to rebuild the solvable source without re-parsing
// the wire marginal.
type Result struct {
	Response  api.FitResponse
	Marginal  dist.Marginal
	MeanEpoch float64
	// Hurst is the clamped estimate the model uses; Cutoff the resolved
	// lag (math.Inf(1) when the request said infinite).
	Hurst  float64
	Cutoff float64
}

// Reference builds the fitted cutoff-Pareto fluid source.
func (r *Result) Reference() (fluid.Source, error) {
	return fluid.FromTraceStats(r.Marginal, r.Hurst, r.MeanEpoch, r.Cutoff)
}

// Realize builds the fitted source transformed into the target registry
// model (Options.Model; fluid when none was given).
func (r *Result) Realize() (source.Source, error) {
	ref, err := r.Reference()
	if err != nil {
		return nil, err
	}
	return r.Response.Model.Realize(ref)
}

// Trace fits the model ingredients to a trace. It validates its whole
// input — a CSV trace and a /v1/fit request take the same checks — so
// every malformed trace or option is an api.CodeBadRequest error;
// estimation failures on a well-formed trace carry api.CodeEstimation.
func Trace(tr traces.Trace, opts Options) (*Result, error) {
	if len(tr.Rates) == 0 {
		return nil, api.Errorf(api.CodeBadRequest, "empty trace")
	}
	if !(tr.BinWidth > 0) || math.IsInf(tr.BinWidth, 1) {
		return nil, api.Errorf(api.CodeBadRequest, "trace bin width must be finite and positive, got %g", tr.BinWidth)
	}
	for i, v := range tr.Rates {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, api.Errorf(api.CodeBadRequest, "non-finite rate at index %d", i)
		}
		if v < 0 {
			return nil, api.Errorf(api.CodeBadRequest, "negative rate %g at index %d", v, i)
		}
	}
	cutoff := opts.Cutoff
	if !(cutoff >= 0) || math.IsInf(cutoff, 1) {
		return nil, api.Errorf(api.CodeBadRequest, "cutoff must be finite and >= 0, got %g", cutoff)
	}
	bins := opts.Bins
	if bins <= 0 {
		bins = DefaultBins
	}
	marg, err := tr.Marginal(bins)
	if err != nil {
		return nil, api.Errorf(api.CodeEstimation, "fitting marginal: %v", err)
	}
	epoch, err := tr.MeanEpoch(bins)
	if err != nil {
		return nil, api.Errorf(api.CodeEstimation, "extracting mean epoch: %v", err)
	}

	est := lrdest.EstimateAll(tr.Rates)
	raw, chosen, err := chooseHurst(est, opts)
	if err != nil {
		return nil, err
	}
	h := math.Min(math.Max(raw, MinHurst), MaxHurst)
	alpha := dist.AlphaFromHurst(h)
	theta, err := dist.CalibrateTheta(alpha, epoch)
	if err != nil {
		return nil, api.Errorf(api.CodeEstimation, "calibrating theta from mean epoch %g s: %v", epoch, err)
	}

	resolved := cutoff
	if resolved == 0 {
		resolved = math.Inf(1)
	}

	estimates := make(map[string]api.EstimatorResult, 5)
	for _, ne := range est.ByName() {
		if ne.Err != nil {
			estimates[ne.Name] = api.EstimatorResult{Error: ne.Err.Error()}
			continue
		}
		estimates[ne.Name] = api.EstimatorResult{Hurst: ne.H}
	}

	return &Result{
		Response: api.FitResponse{
			Samples:   len(tr.Rates),
			BinWidth:  tr.BinWidth,
			MeanRate:  tr.MeanRate(),
			MeanEpoch: epoch,
			Hurst:     h,
			RawHurst:  raw,
			Estimator: chosen,
			Alpha:     alpha,
			Theta:     theta,
			Cutoff:    cutoff,
			Marginal:  source.FormatMarginal(marg),
			Model:     opts.Model,
			Estimates: estimates,
		},
		Marginal:  marg,
		MeanEpoch: epoch,
		Hurst:     h,
		Cutoff:    resolved,
	}, nil
}

// chooseHurst resolves the estimate the fit uses: an explicit override, a
// named estimator's slot, or the median of the estimators that succeeded.
func chooseHurst(est lrdest.Estimates, opts Options) (raw float64, chosen string, err error) {
	if opts.Hurst != 0 {
		if !(opts.Hurst > 0 && opts.Hurst < 1) {
			return 0, "", api.Errorf(api.CodeBadRequest, "hurst override %g outside (0, 1)", opts.Hurst)
		}
		return opts.Hurst, "override", nil
	}
	switch opts.Estimator {
	case "", "median":
		med, merr := est.Median()
		if merr != nil {
			return 0, "", api.Errorf(api.CodeEstimation, "%v", merr)
		}
		return med, "median", nil
	default:
		for _, ne := range est.ByName() {
			if ne.Name != opts.Estimator {
				continue
			}
			if ne.Err != nil {
				return 0, "", api.Errorf(api.CodeEstimation, "estimator %s: %v", ne.Name, ne.Err)
			}
			return ne.H, ne.Name, nil
		}
		return 0, "", api.Errorf(api.CodeBadRequest, "unknown estimator %q (aggvar, rs, whittle, wavelet, gph, median)", opts.Estimator)
	}
}

// FromRequest adapts a /v1/fit wire request into a trace and options;
// Trace validates both.
func FromRequest(req api.FitRequest) (traces.Trace, Options) {
	tr := traces.Trace{Name: "wire", BinWidth: req.BinWidth, Rates: req.Rates}
	opts := Options{
		Bins:      req.Bins,
		Estimator: req.Estimator,
		Hurst:     req.Hurst,
		Cutoff:    req.Cutoff,
		Model:     req.Model,
	}
	return tr, opts
}

// String renders the fit like the lrdtrace report (one line per fact), for
// the CLI's human output.
func (r *Result) String() string {
	f := r.Response
	return fmt.Sprintf("samples %d × %.4g s, mean rate %.6g, mean epoch %.4g s, H=%.3f (%s, raw %.3f), alpha=%.3f, theta=%.4g",
		f.Samples, f.BinWidth, f.MeanRate, f.MeanEpoch, f.Hurst, f.Estimator, f.RawHurst, f.Alpha, f.Theta)
}
