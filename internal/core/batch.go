package core

import (
	"context"
	"sort"
	"sync"

	"lrd/internal/fluid"
	"lrd/internal/obs"
	"lrd/internal/solver"
	"lrd/internal/source"
)

// batchLocal reports whether batch-mode resource sharing — one solver.Arena
// across the sweep's cells, per-column realized-source reuse — applies:
// batching is requested and the cells solve in-process (remote fleets own
// their buffers).
func (c SweepConfig) batchLocal() bool {
	return (c.Batch || c.WarmStarts) && c.Remote == nil
}

// withBatchArena attaches a fresh shared Arena in batch mode. Sweep entry
// points call it before building their compute closures (the closures
// capture the config by value, so attaching any later would be a no-op).
// The arena is excluded from ConfigHash and bit-invisible to results, so
// journal prefixes — and the cells themselves — are unchanged.
func (c SweepConfig) withBatchArena() SweepConfig {
	if c.batchLocal() && c.Solver.Arena == nil {
		c.Solver.Arena = solver.NewArena()
	}
	return c
}

// realizeModel transforms a reference fluid source into the sweep's
// configured traffic model (SweepConfig.Model; the zero spec is the fluid
// identity). Models fitted by approximation (e.g. markov) surface their
// correlation-fit error through the MetricSourceFitMaxError gauge.
func realizeModel(cfg SweepConfig, ref fluid.Source) (source.Source, error) {
	s, err := cfg.Model.Realize(ref)
	if err != nil {
		return nil, err
	}
	if fq, ok := s.(source.FitQuality); ok && cfg.Solver.Recorder != nil {
		cfg.Solver.Recorder.Set(obs.MetricSourceFitMaxError, fq.FitMaxError())
	}
	return s, nil
}

// newColumnCache memoizes per-column realized sources: a batch sweep
// realizes each cutoff column's source once and shares it across the
// column's cells. Source realization is deterministic, so the shared source
// is bit-identical to per-cell realization — only the redundant work (trace
// stats, correlation fits) disappears.
func newColumnCache(n int, realize func(int) (source.Source, error)) func(int) (source.Source, error) {
	type entry struct {
		once sync.Once
		src  source.Source
		err  error
	}
	entries := make([]entry, n)
	return func(c int) (source.Source, error) {
		e := &entries[c]
		e.once.Do(func() { e.src, e.err = realize(c) })
		return e.src, e.err
	}
}

// bufferChains partitions the row-major buffer×cutoff grid (cell i maps to
// buffer i/nc, cutoff i%nc) into per-cutoff chains ordered by ascending
// buffer — the direction the warm-start coupling argument permits. No such
// ordering exists along the cutoff axis (the work increment takes both
// signs), so chains never cross columns.
func bufferChains(buffers []float64, nc int) [][]int {
	order := make([]int, len(buffers))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return buffers[order[a]] < buffers[order[b]] })
	chains := make([][]int, nc)
	for c := 0; c < nc; c++ {
		chain := make([]int, len(buffers))
		for k, bi := range order {
			chain[k] = bi*nc + c
		}
		chains[c] = chain
	}
	return chains
}

// gridSweepChained is gridSweep for warm-chained sweeps: each chain's cells
// execute sequentially, threading a warm-start seed from every freshly
// computed cell into its successor; chains run in parallel on the worker
// pool (so the parallelMap scheduling unit — and its started/completed
// telemetry — is a chain, not a cell).
//
// Durability semantics are unchanged: every cell still goes through
// runCell, so journaled cells replay their committed results untouched and
// leases are honored. A replayed (resumed or adopted) cell carries no
// occupancy vectors, so it breaks the chain — the next cell starts cold —
// which is exactly the "warm starts never change committed results, only
// iteration counts" contract.
func gridSweepChained(ctx context.Context, cfg SweepConfig, n int, chains [][]int, key func(int) string, compute func(context.Context, int, *solver.Seed) (Point, *solver.Seed, error)) ([]Point, error) {
	rec := cfg.Solver.Recorder
	out := make([]Point, n)
	cellDone := make([]bool, n) // written by workers, read after the pool drains
	_, err := parallelMap(ctx, rec, cfg.Workers, len(chains), func(ci int) error {
		if rec != nil {
			rec.Add(obs.MetricCoreWarmChains, 1)
		}
		var seed *solver.Seed
		for _, i := range chains[ci] {
			var next *solver.Seed
			p, err := runCell(ctx, cfg, key(i), func(ctx context.Context) (Point, error) {
				pt, ns, cerr := compute(ctx, i, seed)
				next = ns
				return pt, cerr
			})
			if err != nil {
				return err
			}
			out[i] = p
			cellDone[i] = true
			if next == nil && seed != nil && rec != nil {
				rec.Add(obs.MetricCoreWarmChainBreaks, 1)
			}
			seed = next
		}
		return nil
	})
	return completedPoints(out, cellDone), err
}
