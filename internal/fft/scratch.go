package fft

import (
	"unsafe"

	"lrd/internal/obs"
)

// Scratch holds the working buffer of one ConvolveRealInto call chain so a
// hot loop (the solver performs two convolutions per Lindley step) can reuse
// it instead of allocating a transform-sized slice per call. The spectrum
// product and the inverse transform are formed in place, and the real
// result is compacted into the front of the same buffer, so one complex
// slice of the transform length is the whole workspace. A Scratch is owned
// by a single goroutine at a time; the zero value is ready to use and grows
// its buffer on demand, after which steady-state calls allocate nothing.
type Scratch struct {
	z []complex128
}

// grown returns the scratch buffer resliced to length n, reallocating only
// when capacity is insufficient. Contents are unspecified; callers must
// fully overwrite or zero the slice.
func (s *Scratch) grown(n int) []complex128 {
	if cap(s.z) < n {
		s.z = make([]complex128, n)
	}
	s.z = s.z[:n]
	return s.z
}

// floats reinterprets z's backing array as its 2·len(z) float64 parts, real
// and imaginary interleaved (the memory layout of complex128).
func floats(z []complex128) []float64 {
	if len(z) == 0 {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&z[0])), 2*len(z))
}

// ConvolveRealInto is ConvolveReal with a caller-owned scratch buffer. The
// returned slice is owned by s and only valid until the next call with the
// same Scratch. A nil Scratch allocates a fresh one.
func ConvolveRealInto(a, b []float64, s *Scratch) []float64 {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	if s == nil {
		s = new(Scratch)
	}
	outLen := len(a) + len(b) - 1
	if DirectConvolutionSizes(len(a), len(b)) {
		// Small problems: the direct algorithm is both faster and exact.
		if rec := recorder(); rec != nil {
			rec.Add(obs.MetricFFTConvolveNaive, 1)
		}
		out := floats(s.grown((outLen + 1) / 2))[:outLen]
		clear(out)
		convolveNaiveInto(out, a, b)
		return out
	}
	if rec := recorder(); rec != nil {
		rec.Add(obs.MetricFFTConvolveViaFFT, 1)
	}
	m := 1
	for m < outLen {
		m <<= 1
	}
	// Pack both real sequences into one complex transform: z = a + i*b. The
	// tail beyond the inputs must be zero, exactly as a fresh allocation
	// would be.
	z := s.grown(m)
	clear(z)
	for i, v := range a {
		z[i] = complex(v, 0)
	}
	for i, v := range b {
		z[i] += complex(0, v)
	}
	radix2(z, false)
	// With Z = A + iB, A[k] = (Z[k] + conj(Z[-k]))/2 and
	// B[k] = (Z[k] - conj(Z[-k]))/(2i); the product spectrum is A.*B. It
	// overwrites z in place: each (k, m−k) pair is read before either slot
	// is written, and no two iterations share a slot.
	for k := 0; k <= m/2; k++ {
		kr := (m - k) % m
		zk, zkr := z[k], z[kr]
		ak := (zk + complex(real(zkr), -imag(zkr))) * 0.5
		bk := (zk - complex(real(zkr), -imag(zkr))) * complex(0, -0.5)
		p := ak * bk
		z[k] = p
		if kr != k {
			z[kr] = complex(real(p), -imag(p))
		}
	}
	radix2(z, true)
	// Compact the scaled real parts into the front of z's memory: float
	// slot i lies inside complex slot i/2, which is read at or before
	// iteration i, so every element is read before it is overwritten.
	out := floats(z)[:outLen]
	inv := 1 / float64(m)
	for i := range out {
		out[i] = real(z[i]) * inv
	}
	return out
}
