package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"lrd/internal/solver"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public call it makes (or, for solves, from the solver's trace).
type span struct {
	Run    string  `json:"run"`
	ID     int64   `json:"id"`
	Parent int64   `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the run started
	End    float64 `json:"end_s"`
}

// spanLog keeps a traced run's spans in memory; writeFile saves them at
// the end. A nil *spanLog records nothing.
type spanLog struct {
	run   string
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog(run string) *spanLog { return &spanLog{run: run, t0: time.Now()} }

// add records a finished span.
func (l *spanLog) add(name string, parent int64, start, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{
		Run: l.run, ID: int64(len(l.spans) + 1), Parent: parent, Name: name,
		Start: start.Sub(l.t0).Seconds(), End: end.Sub(l.t0).Seconds(),
	})
}

// reserve starts a top-level span whose children finish before it does:
// it allocates the id they name as parent, and finish records the span.
func (l *spanLog) reserve(name string) (id int64, finish func()) {
	if l == nil {
		return 0, func() {}
	}
	start := time.Now()
	l.mu.Lock()
	id = int64(len(l.spans) + 1)
	l.spans = append(l.spans, span{Run: l.run, ID: id, Name: name})
	l.mu.Unlock()
	return id, func() {
		end := time.Now()
		l.mu.Lock()
		l.spans[id-1].Start = start.Sub(l.t0).Seconds()
		l.spans[id-1].End = end.Sub(l.t0).Seconds()
		l.mu.Unlock()
	}
}

// writeFile writes the spans as JSON lines.
func (l *spanLog) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanPath is where a traced run's spans go, inside the build directory.
func spanPath(r *run) string {
	return filepath.Join(".bench_build", "perfbench", "spans-"+r.workload+"-"+strconv.FormatInt(r.seed, 10)+".jsonl")
}

// solveStat is one solve's shape as seen through solver.Config.Trace.
type solveStat struct {
	first   int         // resolution of the first grid build
	last    int         // resolution of the latest step
	steps   map[int]int // Lindley steps per resolution M
	refines []int       // resolutions reached by M-doubling
	final   bool
	elapsed float64 // solve wall seconds, from the final point
	bins    int     // final resolution
}

// solveTracer collects every solve's steps, refinements and wall time from
// the solver's public Trace callback, and records one span per solve under
// the current parent span. Safe for concurrent solves.
type solveTracer struct {
	spans  *spanLog
	mu     sync.Mutex
	parent int64
	solves map[uint64]*solveStat
}

func newSolveTracer(spans *spanLog) *solveTracer {
	return &solveTracer{spans: spans, solves: map[uint64]*solveStat{}}
}

// under sets the span that solves finishing from now on belong to.
func (t *solveTracer) under(parent int64) {
	t.mu.Lock()
	t.parent = parent
	t.mu.Unlock()
}

// point is the solver.Config.Trace callback.
func (t *solveTracer) point(p solver.TracePoint) {
	t.mu.Lock()
	s := t.solves[p.Solve]
	if s == nil {
		s = &solveStat{first: p.Bins, last: p.Bins, steps: map[int]int{}}
		t.solves[p.Solve] = s
	}
	for m := s.last * 2; m <= p.Bins; m *= 2 {
		s.refines = append(s.refines, m)
	}
	s.last = p.Bins
	if !p.Final {
		s.steps[p.Bins]++
		t.mu.Unlock()
		return
	}
	s.final, s.elapsed, s.bins = true, p.Elapsed, p.Bins
	parent := t.parent
	t.mu.Unlock()
	end := time.Now()
	t.spans.add("solver.solve", parent, end.Add(-time.Duration(p.Elapsed*float64(time.Second))), end)
}

// reset forgets every solve seen so far.
func (t *solveTracer) reset() {
	t.mu.Lock()
	t.solves = map[uint64]*solveStat{}
	t.mu.Unlock()
}

// finished returns the completed solves.
func (t *solveTracer) finished() []*solveStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []*solveStat
	for _, s := range t.solves {
		if s.final {
			out = append(out, s)
		}
	}
	return out
}

// sizes lists every resolution M the finished solves built or stepped at.
func (t *solveTracer) sizes() []int {
	set := map[int]bool{}
	for _, s := range t.finished() {
		set[s.first] = true
		for m := range s.steps {
			set[m] = true
		}
		for _, m := range s.refines {
			set[m] = true
		}
	}
	out := make([]int, 0, len(set))
	for m := range set {
		out = append(out, m)
	}
	sort.Ints(out)
	return out
}

// unitCosts are single-call wall seconds, by resolution M, of the solver's
// three phases: one Lindley step, one grid build (tables and increment
// pmfs at NewModelIterator) and one refinement to M.
type unitCosts struct {
	step, grid, refine map[int]float64
}

// shares splits the traced solves' wall time into the step and grid
// phases: counts × unit costs ÷ Σ solve seconds. Their sum is the share of
// solve time the two phases account for.
func (t *solveTracer) shares(u unitCosts) (step, grid float64) {
	var total, st, gr float64
	for _, s := range t.finished() {
		total += s.elapsed
		gr += u.grid[s.first]
		for _, m := range s.refines {
			gr += u.refine[m]
		}
		for m, n := range s.steps {
			st += float64(n) * u.step[m]
		}
	}
	return ratio(st, total), ratio(gr, total)
}

// solveSummary reports the traced solves' final resolutions and wall
// milliseconds.
func (t *solveTracer) solveSummary() (bins, ms []float64) {
	for _, s := range t.finished() {
		bins = append(bins, float64(s.bins))
		ms = append(ms, s.elapsed*1e3)
	}
	return bins, ms
}
