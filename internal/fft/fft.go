// Package fft implements the fast Fourier transform and FFT-based linear
// convolution on float64 data using only the standard library.
//
// Two transform kernels are provided: an iterative radix-2
// Cooley–Tukey transform for power-of-two lengths and Bluestein's
// chirp-z algorithm for arbitrary lengths. Callers normally use the
// length-agnostic Forward/Inverse entry points, or ConvolveRealInto for
// linear convolution of real sequences (the operation at the heart of the
// paper's O(M log M) queue-occupancy recursion).
//
// Twiddle factors for the radix-2 kernel are precomputed per transform
// size and cached process-wide (the solver hits the same handful of sizes
// millions of times during a sweep). SetRecorder attaches a telemetry
// recorder counting plan-cache hits/misses, transform sizes, and which
// convolution path (direct vs. FFT) each ConvolveRealInto call took.
package fft

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"lrd/internal/obs"
)

// recBox wraps the recorder so a nil interface can be stored in
// atomic.Value (which rejects inconsistently-typed or nil values).
type recBox struct{ r obs.Recorder }

var globalRec atomic.Value // recBox

// SetRecorder attaches a telemetry recorder to the package's transform and
// convolution entry points; nil detaches it. Safe for concurrent use with
// running transforms.
func SetRecorder(r obs.Recorder) { globalRec.Store(recBox{r}) }

func recorder() obs.Recorder {
	if b, ok := globalRec.Load().(recBox); ok {
		return b.r
	}
	return nil
}

// directConvolutionCrossover is the work bound (len(a)*len(b)) below which
// the O(n·m) direct convolution beats the FFT path.
const directConvolutionCrossover = 4096

// DirectConvolutionSizes reports whether ConvolveRealInto would take the
// direct O(n·m) path for inputs of the given lengths — exported so
// instrumented callers (the solver's per-step metrics) can label the path
// taken without duplicating the crossover constant.
func DirectConvolutionSizes(n, m int) bool {
	return n*m <= directConvolutionCrossover
}

// maxCachedPlanSize bounds plan-cache memory: transforms larger than this
// (well beyond the solver's maximum convolution length) build their
// twiddles on the fly instead of being cached.
const maxCachedPlanSize = 1 << 21

// plan holds the per-stage twiddle factors of a radix-2 transform of one
// size, flattened: the stage with half-size h occupies indices
// [h-1, 2h-1). Forward and inverse tables differ only in the sign of the
// exponent.
type plan struct {
	fwd, inv []complex128
}

var planCache sync.Map // int -> *plan

// planFor returns the (possibly cached) twiddle plan for size n.
func planFor(n int) *plan {
	if v, ok := planCache.Load(n); ok {
		if rec := recorder(); rec != nil {
			rec.Add(obs.MetricFFTPlanHits, 1)
		}
		return v.(*plan)
	}
	if rec := recorder(); rec != nil {
		rec.Add(obs.MetricFFTPlanMisses, 1)
	}
	p := buildPlan(n)
	if n <= maxCachedPlanSize {
		if v, loaded := planCache.LoadOrStore(n, p); loaded {
			return v.(*plan)
		}
	}
	return p
}

// buildPlan precomputes the twiddle factors w_size^k = exp(±2πik/size) for
// every stage size 2, 4, …, n, k < size/2.
func buildPlan(n int) *plan {
	p := &plan{
		fwd: make([]complex128, n-1),
		inv: make([]complex128, n-1),
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := 2 * math.Pi / float64(size)
		for k := 0; k < half; k++ {
			s, c := math.Sincos(step * float64(k))
			p.fwd[half-1+k] = complex(c, -s)
			p.inv[half-1+k] = complex(c, s)
		}
	}
	return p
}

// Forward returns the discrete Fourier transform of x. The input is not
// modified. Any length is accepted; power-of-two lengths use the radix-2
// kernel, others use Bluestein's algorithm.
func Forward(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	copy(out, x)
	transform(out, false)
	return out
}

// Inverse returns the inverse discrete Fourier transform of x, normalized by
// 1/len(x) so that Inverse(Forward(x)) == x up to roundoff.
func Inverse(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	copy(out, x)
	transform(out, true)
	return out
}

// transform computes an in-place DFT (or inverse DFT) of x of any length.
func transform(x []complex128, inverse bool) {
	n := len(x)
	if n <= 1 {
		return
	}
	if n&(n-1) == 0 {
		radix2(x, inverse)
	} else {
		bluestein(x, inverse)
	}
	if inverse {
		inv := complex(1/float64(n), 0)
		for i := range x {
			x[i] *= inv
		}
	}
}

// radix2 computes an unnormalized in-place DFT for power-of-two lengths
// using the iterative decimation-in-time Cooley–Tukey algorithm. The
// twiddle factors come from the process-wide plan cache, so after the
// first transform of a given size the kernel performs no trigonometry at
// all — the dominant setup cost of the per-step solver convolution
// otherwise.
func radix2(x []complex128, inverse bool) {
	n := len(x)
	if rec := recorder(); rec != nil {
		rec.Observe(obs.MetricFFTTransformSize, float64(n))
	}
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	// Bit-reversal permutation.
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	p := planFor(n)
	tw := p.fwd
	if inverse {
		tw = p.inv
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		stage := tw[half-1 : 2*half-1]
		if half < 8 {
			// Short stages have many tiny blocks: loop over the twiddle
			// outermost so each one is loaded once per stage.
			for k, w := range stage {
				for i := k; i < n; i += size {
					a := x[i]
					b := x[i+half] * w
					x[i] = a + b
					x[i+half] = a - b
				}
			}
			continue
		}
		for start := 0; start < n; start += size {
			// Equal-length views let the compiler drop the bounds checks.
			lo := x[start : start+half]
			hi := x[start+half : start+size]
			hi = hi[:len(lo)]
			w := stage[:len(lo)]
			for k := range lo {
				a := lo[k]
				b := hi[k] * w[k]
				lo[k] = a + b
				hi[k] = a - b
			}
		}
	}
}

// bluestein computes an unnormalized DFT of arbitrary length n by expressing
// it as a linear convolution of length >= 2n-1, which is evaluated with the
// radix-2 kernel.
func bluestein(x []complex128, inverse bool) {
	n := len(x)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	// Chirp factors w[k] = exp(sign * i*pi*k^2/n). k*k can overflow for very
	// large n, so reduce k^2 mod 2n in int64 arithmetic.
	chirp := make([]complex128, n)
	for k := 0; k < n; k++ {
		kk := (int64(k) * int64(k)) % int64(2*n)
		s, c := math.Sincos(sign * math.Pi * float64(kk) / float64(n))
		chirp[k] = complex(c, s)
	}
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	a := make([]complex128, m)
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		a[k] = x[k] * chirp[k]
	}
	conj := func(z complex128) complex128 { return complex(real(z), -imag(z)) }
	b[0] = conj(chirp[0])
	for k := 1; k < n; k++ {
		b[k] = conj(chirp[k])
		b[m-k] = b[k]
	}
	radix2(a, false)
	radix2(b, false)
	for i := range a {
		a[i] *= b[i]
	}
	radix2(a, true)
	scale := complex(1/float64(m), 0)
	for k := 0; k < n; k++ {
		x[k] = a[k] * scale * chirp[k]
	}
}

// convolveNaiveInto accumulates the O(n·m) direct convolution of a and b
// into out, which must be zeroed and of length len(a)+len(b)-1.
func convolveNaiveInto(out, a, b []float64) {
	for i, av := range a {
		if av == 0 {
			continue
		}
		for j, bv := range b {
			out[i+j] += av * bv
		}
	}
}

// ConvolveRealNaive exposes the direct O(n·m) linear convolution. The solver
// uses it below a crossover size where it beats the FFT, and tests use it as
// the ground truth for ConvolveRealInto.
func ConvolveRealNaive(a, b []float64) []float64 {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	out := make([]float64, len(a)+len(b)-1)
	convolveNaiveInto(out, a, b)
	return out
}

// Periodogram returns the one-sided periodogram I(f_j) of the real series x
// at the Fourier frequencies f_j = j/n for j = 1..floor((n-1)/2):
//
//	I(f_j) = |sum_t x[t] e^{-2πi f_j t}|² / (2π n)
//
// This is the normalization used by Whittle-type long-memory estimators.
func Periodogram(x []float64) []float64 {
	n := len(x)
	if n < 2 {
		return nil
	}
	z := make([]complex128, n)
	for i, v := range x {
		z[i] = complex(v, 0)
	}
	transform(z, false)
	m := (n - 1) / 2
	out := make([]float64, m)
	norm := 1 / (2 * math.Pi * float64(n))
	for j := 1; j <= m; j++ {
		re, im := real(z[j]), imag(z[j])
		out[j-1] = (re*re + im*im) * norm
	}
	return out
}
