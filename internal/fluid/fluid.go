// Package fluid implements the cutoff-correlated modulated fluid traffic
// model of Grossglauser & Bolot (SIGCOMM '96, §II).
//
// The source emits fluid at a piecewise-constant rate: at each arrival of a
// renewal process with truncated-Pareto interarrival times (dist.
// TruncatedPareto, Eq. 6 of the paper) a new rate is drawn i.i.d. from a
// finite marginal distribution (dist.Marginal). The resulting rate process
// {X_t} has autocovariance φ(t) = σ²·Pr{τ_res ≥ t} (Eq. 3), which matches an
// asymptotically second-order self-similar process with Hurst parameter
// H = (3−α)/2 up to the cutoff lag Tc and is exactly zero beyond it.
package fluid

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"lrd/internal/dist"
)

// Source is the paper's traffic model: i.i.d. rates drawn at the epochs of a
// truncated-Pareto renewal process.
type Source struct {
	// Marginal is the fluid rate distribution (Λ, Π).
	Marginal dist.Marginal
	// Interarrival is the epoch-length distribution F_T.
	Interarrival dist.TruncatedPareto
}

// New validates and returns a Source.
func New(marginal dist.Marginal, inter dist.TruncatedPareto) (Source, error) {
	if marginal.Len() == 0 {
		return Source{}, errors.New("fluid: empty marginal")
	}
	if err := inter.Validate(); err != nil {
		return Source{}, err
	}
	return Source{Marginal: marginal, Interarrival: inter}, nil
}

// FromTraceStats builds a Source the way the paper fits its traces (§III):
// the marginal comes from a constant-bin histogram of the trace, the tail
// index is α = 3 − 2H from the estimated Hurst parameter, and θ is set so
// that the untruncated mean interarrival time θ/(α−1) matches the trace's
// mean epoch duration. cutoff is the correlation cutoff lag Tc in seconds
// (math.Inf(1) for the fully self-similar case).
func FromTraceStats(marginal dist.Marginal, hurst, meanEpoch, cutoff float64) (Source, error) {
	if !(hurst > 0.5 && hurst < 1) {
		return Source{}, fmt.Errorf("fluid: Hurst parameter %v outside (0.5, 1)", hurst)
	}
	alpha := dist.AlphaFromHurst(hurst)
	theta, err := dist.CalibrateTheta(alpha, meanEpoch)
	if err != nil {
		return Source{}, err
	}
	return New(marginal, dist.TruncatedPareto{Theta: theta, Alpha: alpha, Cutoff: cutoff})
}

// WithCutoff returns a copy of s with the interarrival cutoff lag replaced,
// leaving θ and α unchanged. This is the knob swept in the paper's first
// experiment set (Figs. 4, 5, 9).
func (s Source) WithCutoff(cutoff float64) Source {
	s.Interarrival.Cutoff = cutoff
	return s
}

// WithMarginal returns a copy of s with the marginal replaced (used for the
// scaling and superposition transforms of Figs. 10–13).
func (s Source) WithMarginal(m dist.Marginal) Source {
	s.Marginal = m
	return s
}

// MeanRate returns λ̄ = Π Λ 1ᵀ (Eq. 2).
func (s Source) MeanRate() float64 { return s.Marginal.Mean() }

// RateVariance returns σ² = Π Λ² 1ᵀ − λ̄² (Eq. 4).
func (s Source) RateVariance() float64 { return s.Marginal.Variance() }

// Hurst returns the Hurst parameter H = (3−α)/2 of the asymptotic
// self-similar correlation structure obtained as Tc → ∞.
func (s Source) Hurst() float64 { return dist.HurstFromAlpha(s.Interarrival.Alpha) }

// Autocovariance returns φ(t) = σ²·Pr{τ_res ≥ t} (Eqs. 3, 8): the covariance
// of the fluid rate at lag t. It is exactly zero for t ≥ Tc.
func (s Source) Autocovariance(t float64) float64 {
	return s.RateVariance() * s.Interarrival.ResidualCCDF(t)
}

// Autocorrelation returns φ(t)/σ², i.e. the normalized correlation
// Pr{τ_res ≥ t} of Eq. (7).
func (s Source) Autocorrelation(t float64) float64 {
	return s.Interarrival.ResidualCCDF(t)
}

// Epoch is one piecewise-constant segment of a sample path.
type Epoch struct {
	Duration float64 // segment length T_n (seconds)
	Rate     float64 // fluid rate λ(n) during the segment
}

// GenerateEpochs samples n consecutive renewal epochs of the source.
func (s Source) GenerateEpochs(n int, rng *rand.Rand) []Epoch {
	out := make([]Epoch, n)
	for i := range out {
		out[i] = Epoch{
			Duration: s.Interarrival.Sample(rng),
			Rate:     s.Marginal.Sample(rng),
		}
	}
	return out
}

// GenerateBinned samples a stationary path of total duration horizon
// seconds and integrates it into bins of width binWidth, returning the
// average rate in each bin (the format of the paper's traces: "each trace
// element is a rate averaged over a 10 ms interval"). The first epoch's
// remaining length is drawn from the residual-life law (Eq. 7), so the
// path starts in the stationary regime rather than at a renewal instant.
func (s Source) GenerateBinned(horizon, binWidth float64, rng *rand.Rand) ([]float64, error) {
	if !(horizon > 0) || !(binWidth > 0) {
		return nil, errors.New("fluid: GenerateBinned requires positive horizon and bin width")
	}
	nbins := int(math.Ceil(horizon / binWidth))
	work := make([]float64, nbins)
	t := 0.0
	first := true
	for t < horizon {
		var d float64
		if first {
			d = s.Interarrival.SampleResidual(rng)
			first = false
		} else {
			d = s.Interarrival.Sample(rng)
		}
		if d <= 0 {
			// Zero-length epochs carry no work; resample defensively.
			continue
		}
		r := s.Marginal.Sample(rng)
		end := math.Min(t+d, horizon)
		// Spread r·(segment length) over the covered bins.
		for seg := t; seg < end; {
			bin := int(seg / binWidth)
			if bin >= nbins {
				break
			}
			binEnd := math.Min(float64(bin+1)*binWidth, end)
			if binEnd <= seg {
				// Floating-point stall: the computed boundary did not
				// advance (seg sits exactly on a bin edge whose index
				// rounded down). Force strict progress; the skipped work
				// is below one ulp.
				binEnd = math.Nextafter(seg, math.Inf(1))
			}
			work[bin] += r * (binEnd - seg)
			seg = binEnd
		}
		t += d
	}
	for i := range work {
		work[i] /= binWidth
	}
	return work, nil
}

// String summarizes the source parameters.
func (s Source) String() string {
	return fmt.Sprintf("Source{H: %.3f (α=%.3f), θ: %.4g s, Tc: %.4g s, %v}",
		s.Hurst(), s.Interarrival.Alpha, s.Interarrival.Theta, s.Interarrival.Cutoff, s.Marginal)
}
