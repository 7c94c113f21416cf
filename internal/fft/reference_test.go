package fft

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// radix2Reference is the plain iterative Cooley–Tukey loop radix2 was
// tuned from: one butterfly per (block, k) with k innermost. The tuned
// kernel must reproduce it bit for bit.
func radix2Reference(x []complex128, inverse bool) {
	n := len(x)
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
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
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * stage[k]
				x[start+k] = a + b
				x[start+k+half] = a - b
			}
		}
	}
}

// convolveRealReference is the FFT convolution with separately allocated
// spectrum-product and output buffers, over the reference kernel.
func convolveRealReference(a, b []float64) []float64 {
	outLen := len(a) + len(b) - 1
	m := 1
	for m < outLen {
		m <<= 1
	}
	z := make([]complex128, m)
	for i, v := range a {
		z[i] = complex(v, 0)
	}
	for i, v := range b {
		z[i] += complex(0, v)
	}
	radix2Reference(z, false)
	prod := make([]complex128, m)
	for k := 0; k <= m/2; k++ {
		kr := (m - k) % m
		zk, zkr := z[k], z[kr]
		ak := (zk + complex(real(zkr), -imag(zkr))) * 0.5
		bk := (zk - complex(real(zkr), -imag(zkr))) * complex(0, -0.5)
		p := ak * bk
		prod[k] = p
		if kr != k {
			prod[kr] = complex(real(p), -imag(p))
		}
	}
	radix2Reference(prod, true)
	out := make([]float64, outLen)
	inv := 1 / float64(m)
	for i := range out {
		out[i] = real(prod[i]) * inv
	}
	return out
}

// wideRandom returns a value of random sign whose magnitude is log-uniform
// over [1e-30, 1], the dynamic range of occupancy and increment pmfs.
func wideRandom(rng *rand.Rand) float64 {
	v := math.Pow(10, -30*rng.Float64())
	if rng.Intn(2) == 0 {
		v = -v
	}
	return v
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestRadix2MatchesReference: the tuned kernel equals the reference loop
// bitwise for every power of two from 2 to 32768, forward and inverse.
func TestRadix2MatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for n := 2; n <= 1<<15; n <<= 1 {
		for _, inverse := range []bool{false, true} {
			x := make([]complex128, n)
			for i := range x {
				x[i] = complex(wideRandom(rng), wideRandom(rng))
			}
			want := append([]complex128(nil), x...)
			radix2Reference(want, inverse)
			radix2(x, inverse)
			for i := range x {
				if !sameBits(real(x[i]), real(want[i])) || !sameBits(imag(x[i]), imag(want[i])) {
					t.Fatalf("n=%d inverse=%v: x[%d] = %v, reference %v", n, inverse, i, x[i], want[i])
				}
			}
		}
	}
}

// TestConvolveRealIntoMatchesReference: forming the spectrum product in
// place and compacting the result into the transform buffer changes no
// bit of the convolution, including for reused, shrinking and growing
// scratch buffers.
func TestConvolveRealIntoMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var s Scratch
	sizes := [][2]int{{65, 129}, {513, 1025}, {45, 129}, {2049, 4097}, {4097, 8193}, {1025, 2049}}
	for _, sz := range sizes {
		a := make([]float64, sz[0])
		b := make([]float64, sz[1])
		for i := range a {
			a[i] = math.Abs(wideRandom(rng))
		}
		for i := range b {
			b[i] = math.Abs(wideRandom(rng))
		}
		want := convolveRealReference(a, b)
		got := ConvolveRealInto(a, b, &s)
		if len(got) != len(want) {
			t.Fatalf("size %v: len %d, want %d", sz, len(got), len(want))
		}
		for i := range want {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("size %v: out[%d] = %g, reference %g", sz, i, got[i], want[i])
			}
		}
	}
}

// BenchmarkRadix2 compares the tuned kernel with the reference loop, each
// forward-transforming a fresh copy of the same input.
func BenchmarkRadix2(b *testing.B) {
	for _, n := range []int{512, 4096, 32768} {
		in := randComplex(n, 1)
		x := make([]complex128, n)
		for _, k := range []struct {
			name   string
			kernel func([]complex128, bool)
		}{{"tuned", radix2}, {"reference", radix2Reference}} {
			b.Run(fmt.Sprintf("n=%d/%s", n, k.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(x, in)
					k.kernel(x, false)
				}
			})
		}
	}
}
