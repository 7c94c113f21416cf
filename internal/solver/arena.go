package solver

import (
	"sync"

	"lrd/internal/fft"
	"lrd/internal/obs"
)

// Arena pools the solver's per-solve scratch memory — FFT convolution
// workspaces, step output double-buffers, and the grid tables rebuilt on
// every resolution rung — across the many solves of a batch. It is purely an
// allocation optimization: every pooled buffer is either fully overwritten
// or zeroed before use, so results are bit-identical to the unpooled path
// (the batch golden tests assert this). An Arena is safe for concurrent use;
// each solve borrows one scratch set for its whole lifetime and returns it
// when RunContext finishes. Returned sets stay on a free list — unlike a
// sync.Pool, neither the garbage collector nor the race detector drops
// them, so reuse is deterministic — and the memory an Arena retains is
// bounded by the peak number of concurrent solves sharing it.
type Arena struct {
	mu   sync.Mutex
	free []*arenaScratch
}

// NewArena returns an empty Arena. One Arena should be shared by all the
// solves of a sweep or serving process; sharing across unrelated workloads
// is safe but pools their peak scratch sizes together.
func NewArena() *Arena { return &Arena{} }

// borrow takes a scratch set from the free list, counting reuse vs. fresh
// allocation on the borrowing solve's recorder.
func (a *Arena) borrow(rec obs.Recorder) *arenaScratch {
	a.mu.Lock()
	var s *arenaScratch
	if n := len(a.free); n > 0 {
		s = a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
	}
	a.mu.Unlock()
	if s != nil {
		if rec != nil {
			rec.Add(obs.MetricSolverArenaReuse, 1)
		}
		return s
	}
	if rec != nil {
		rec.Add(obs.MetricSolverArenaAlloc, 1)
	}
	return &arenaScratch{}
}

// release returns a scratch set to the free list. Safe on nil.
func (a *Arena) release(s *arenaScratch) {
	if a != nil && s != nil {
		a.mu.Lock()
		a.free = append(a.free, s)
		a.mu.Unlock()
	}
}

// arenaScratch is one solve's worth of reusable memory: one FFT convolution
// workspace per bound chain (lower, upper) and the record that hands the
// upper chain to a step helper, so the two chains can step concurrently,
// plus a small free list of float64 slices recycled through the resolution
// ladder (increment pmfs, cdf tables, loss tables, occupancy vectors). Owned
// by a single solve at a time.
type arenaScratch struct {
	conv    [2]fft.Scratch
	handOff chainStep
	free    [][]float64
}

// maxFreeSlices bounds a scratch set's free list so a pathological solve
// cannot pin unbounded memory in the arena.
const maxFreeSlices = 16

// getFloat returns a zeroed slice of length n, recycling a free-list entry
// with sufficient capacity when one exists. The zeroing makes recycled
// slices indistinguishable from fresh make() allocations.
func (s *arenaScratch) getFloat(n int) []float64 {
	if s == nil {
		return make([]float64, n)
	}
	for i, b := range s.free {
		if cap(b) >= n {
			last := len(s.free) - 1
			s.free[i] = s.free[last]
			s.free[last] = nil
			s.free = s.free[:last]
			b = b[:n]
			clear(b)
			return b
		}
	}
	return make([]float64, n)
}

// putFloat hands a dead slice back for recycling. Safe on nil receivers and
// empty slices; drops the slice when the free list is full.
func (s *arenaScratch) putFloat(b []float64) {
	if s == nil || cap(b) == 0 || len(s.free) >= maxFreeSlices {
		return
	}
	s.free = append(s.free, b)
}
