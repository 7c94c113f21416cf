package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"lrd/internal/obs"
)

// dftNaive is the O(n²) reference DFT.
func dftNaive(x []complex128, inverse bool) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for k := 0; k < n; k++ {
		var acc complex128
		for t := 0; t < n; t++ {
			ang := sign * 2 * math.Pi * float64(k) * float64(t) / float64(n)
			acc += x[t] * cmplx.Exp(complex(0, ang))
		}
		if inverse {
			acc /= complex(float64(n), 0)
		}
		out[k] = acc
	}
	return out
}

func complexAlmostEqual(a, b []complex128, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if cmplx.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

func randComplex(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return out
}

func TestForwardMatchesNaivePow2(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256} {
		x := randComplex(n, int64(n))
		got := Forward(x)
		want := dftNaive(x, false)
		if !complexAlmostEqual(got, want, 1e-9*float64(n)) {
			t.Fatalf("n=%d: radix-2 FFT disagrees with naive DFT", n)
		}
	}
}

func TestForwardMatchesNaiveNonPow2(t *testing.T) {
	for _, n := range []int{3, 5, 6, 7, 9, 12, 15, 17, 33, 100} {
		x := randComplex(n, int64(n))
		got := Forward(x)
		want := dftNaive(x, false)
		if !complexAlmostEqual(got, want, 1e-8*float64(n)) {
			t.Fatalf("n=%d: Bluestein FFT disagrees with naive DFT", n)
		}
	}
}

func TestInverseRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 7, 16, 31, 128, 129} {
		x := randComplex(n, int64(1000+n))
		y := Inverse(Forward(x))
		if !complexAlmostEqual(x, y, 1e-9*float64(n+1)) {
			t.Fatalf("n=%d: Inverse(Forward(x)) != x", n)
		}
	}
}

func TestForwardDoesNotMutateInput(t *testing.T) {
	x := randComplex(16, 5)
	orig := make([]complex128, len(x))
	copy(orig, x)
	Forward(x)
	for i := range x {
		if x[i] != orig[i] {
			t.Fatal("Forward mutated its input")
		}
	}
}

func TestForwardImpulse(t *testing.T) {
	// DFT of a unit impulse is all ones.
	x := make([]complex128, 8)
	x[0] = 1
	for i, v := range Forward(x) {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("bin %d = %v, want 1", i, v)
		}
	}
}

func TestForwardConstant(t *testing.T) {
	// DFT of a constant is an impulse of height n at bin 0.
	n := 16
	x := make([]complex128, n)
	for i := range x {
		x[i] = 1
	}
	got := Forward(x)
	if cmplx.Abs(got[0]-complex(float64(n), 0)) > 1e-12 {
		t.Fatalf("bin 0 = %v, want %d", got[0], n)
	}
	for i := 1; i < n; i++ {
		if cmplx.Abs(got[i]) > 1e-12 {
			t.Fatalf("bin %d = %v, want 0", i, got[i])
		}
	}
}

func TestParsevalProperty(t *testing.T) {
	// Parseval: sum |x|² == (1/n) sum |X|².
	f := func(seed int64, ln uint8) bool {
		n := int(ln%60) + 2
		x := randComplex(n, seed)
		X := Forward(x)
		var tsum, fsum float64
		for i := range x {
			tsum += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
			fsum += real(X[i])*real(X[i]) + imag(X[i])*imag(X[i])
		}
		fsum /= float64(n)
		return math.Abs(tsum-fsum) <= 1e-8*(tsum+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestConvolveRealMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, sz := range [][2]int{{1, 1}, {3, 5}, {64, 64}, {100, 301}, {257, 1024}} {
		a := make([]float64, sz[0])
		b := make([]float64, sz[1])
		for i := range a {
			a[i] = rng.NormFloat64()
		}
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		got := ConvolveRealInto(a, b, nil)
		want := ConvolveRealNaive(a, b)
		if len(got) != len(want) {
			t.Fatalf("len mismatch: %d vs %d", len(got), len(want))
		}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("sz=%v idx=%d: %v vs %v", sz, i, got[i], want[i])
			}
		}
	}
}

func TestConvolveRealEmpty(t *testing.T) {
	if got := ConvolveRealInto(nil, []float64{1}, nil); got != nil {
		t.Fatalf("want nil, got %v", got)
	}
	if got := ConvolveRealInto([]float64{1}, nil, nil); got != nil {
		t.Fatalf("want nil, got %v", got)
	}
}

func TestConvolveRealIdentity(t *testing.T) {
	// Convolution with [1] is the identity.
	a := []float64{3, 1, 4, 1, 5}
	got := ConvolveRealInto(a, []float64{1}, nil)
	for i := range a {
		if math.Abs(got[i]-a[i]) > 1e-12 {
			t.Fatalf("identity convolution failed at %d", i)
		}
	}
}

func TestConvolvePreservesMassProperty(t *testing.T) {
	// For probability vectors, the convolution's total mass is the product
	// of the input masses (here 1·1 = 1). This is the invariant the solver
	// depends on.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(200) + 1
		m := rng.Intn(200) + 1
		a := make([]float64, n)
		b := make([]float64, m)
		var sa, sb float64
		for i := range a {
			a[i] = rng.Float64()
			sa += a[i]
		}
		for i := range b {
			b[i] = rng.Float64()
			sb += b[i]
		}
		for i := range a {
			a[i] /= sa
		}
		for i := range b {
			b[i] /= sb
		}
		out := ConvolveRealInto(a, b, nil)
		var total float64
		for _, v := range out {
			total += v
		}
		return math.Abs(total-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestConvolveCommutativeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(100) + 1
		m := rng.Intn(100) + 1
		a := make([]float64, n)
		b := make([]float64, m)
		for i := range a {
			a[i] = rng.NormFloat64()
		}
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		ab := ConvolveRealInto(a, b, nil)
		ba := ConvolveRealInto(b, a, nil)
		for i := range ab {
			if math.Abs(ab[i]-ba[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPeriodogramWhiteNoiseFlat(t *testing.T) {
	// White noise has a flat spectrum f(λ) = σ²/(2π); the mean periodogram
	// ordinate should be close to that.
	rng := rand.New(rand.NewSource(7))
	n := 1 << 14
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	p := Periodogram(x)
	if len(p) != (n-1)/2 {
		t.Fatalf("len = %d, want %d", len(p), (n-1)/2)
	}
	var mean float64
	for _, v := range p {
		mean += v
	}
	mean /= float64(len(p))
	want := 1 / (2 * math.Pi)
	if math.Abs(mean-want)/want > 0.05 {
		t.Fatalf("mean periodogram %v, want ≈ %v", mean, want)
	}
}

func TestPeriodogramShortInput(t *testing.T) {
	if got := Periodogram([]float64{1}); got != nil {
		t.Fatalf("want nil for n<2, got %v", got)
	}
}

func TestPeriodogramSinusoid(t *testing.T) {
	// A pure sinusoid at Fourier frequency j/n concentrates its energy in
	// periodogram bin j-1 (bins are indexed from frequency 1/n).
	n := 1024
	j := 100
	x := make([]float64, n)
	for t := range x {
		x[t] = math.Cos(2 * math.Pi * float64(j) * float64(t) / float64(n))
	}
	p := Periodogram(x)
	maxIdx := 0
	for i, v := range p {
		if v > p[maxIdx] {
			maxIdx = i
		}
	}
	if maxIdx != j-1 {
		t.Fatalf("peak at bin %d, want %d", maxIdx, j-1)
	}
}

func BenchmarkForward1024(b *testing.B) {
	x := randComplex(1024, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Forward(x)
	}
}

func BenchmarkConvolveReal4096(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := make([]float64, 4096)
	c := make([]float64, 8193)
	for i := range a {
		a[i] = rng.Float64()
	}
	for i := range c {
		c[i] = rng.Float64()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ConvolveRealInto(a, c, nil)
	}
}

func TestPlanCacheHitsAndMisses(t *testing.T) {
	reg := obs.NewRegistry()
	SetRecorder(reg)
	defer SetRecorder(nil)
	before := reg.CounterValue(obs.MetricFFTPlanHits)
	// A size never cached in this test: first transform misses, second hits.
	x := make([]complex128, 1<<9)
	x[1] = 1
	planCache.Delete(len(x))
	_ = Forward(x)
	_ = Forward(x)
	if misses := reg.CounterValue(obs.MetricFFTPlanMisses); misses < 1 {
		t.Fatalf("plan misses = %v, want >= 1", misses)
	}
	if hits := reg.CounterValue(obs.MetricFFTPlanHits); hits <= before {
		t.Fatalf("plan hits = %v, want > %v", hits, before)
	}
	if n := reg.Histogram(obs.MetricFFTTransformSize).Count(); n < 2 {
		t.Fatalf("transform size observations = %d, want >= 2", n)
	}
}

func TestPlanMatchesTrig(t *testing.T) {
	// The cached plan must reproduce the on-the-fly twiddles exactly.
	const n = 64
	p := buildPlan(n)
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := 2 * math.Pi / float64(size)
		for k := 0; k < half; k++ {
			s, c := math.Sincos(step * float64(k))
			if got, want := p.fwd[half-1+k], complex(c, -s); got != want {
				t.Fatalf("fwd twiddle size=%d k=%d: %v != %v", size, k, got, want)
			}
			if got, want := p.inv[half-1+k], complex(c, s); got != want {
				t.Fatalf("inv twiddle size=%d k=%d: %v != %v", size, k, got, want)
			}
		}
	}
}

func TestConvolvePathCounters(t *testing.T) {
	reg := obs.NewRegistry()
	SetRecorder(reg)
	defer SetRecorder(nil)
	small := make([]float64, 8)
	small[0] = 1
	_ = ConvolveRealInto(small, small, nil) // 64 <= crossover: direct
	big := make([]float64, 256)
	big[0] = 1
	_ = ConvolveRealInto(big, big, nil) // 65536 > crossover: FFT
	if v := reg.CounterValue(obs.MetricFFTConvolveNaive); v != 1 {
		t.Fatalf("direct counter = %v, want 1", v)
	}
	if v := reg.CounterValue(obs.MetricFFTConvolveViaFFT); v != 1 {
		t.Fatalf("fft counter = %v, want 1", v)
	}
	if !DirectConvolutionSizes(8, 8) || DirectConvolutionSizes(256, 256) {
		t.Fatal("DirectConvolutionSizes disagrees with the crossover")
	}
}
