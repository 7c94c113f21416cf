package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"lrd/internal/api"
	"lrd/internal/dist"
	"lrd/internal/fft"
	"lrd/internal/fluid"
	"lrd/internal/obs"
	"lrd/internal/serve"
	"lrd/internal/solver"
	"lrd/internal/source"
)

// The serve workload is an open loop: requests arrive at serveRate from
// one process over at most nproc connections, whatever the server's state.
// One request in every serveBlock is a fresh key (a distinct cutoff), a
// cache miss and a solve at the server's default settings; the rest ask for
// one of serveHot keys solved during set-up, cache hits.
const (
	serveRate  = 300.0
	serveHot   = 32
	serveBlock = 5
	// A run is invalid when the generator falls behind its schedule: more
	// than 1% of requests sent over serveLateP99 late, or one over
	// serveLateMax.
	serveLateP99 = 10 * time.Millisecond
	serveLateMax = time.Second
)

// errBehind marks a serve run whose load generator could not keep to its
// schedule; such a run is invalid and reports no metrics.
var errBehind = errors.New("load generator fell behind its schedule; run invalid")

// serveBody is the /v1/solve request for the queue with cutoff tc: the
// two-state fluid source of the repository's serve tests.
func serveBody(tc float64) api.SolveRequest {
	return api.SolveRequest{Marginal: "0:0.5,2:0.5", Hurst: 0.8, Epoch: 0.05, Cutoff: tc, Util: 0.8, Buffer: 0.2}
}

// serveReq is one scheduled request.
type serveReq struct {
	due  time.Duration // offset from the phase start
	body int           // index into the bodies
	hot  bool
}

// serveInputs draws the seed's bodies — serveHot hot keys first, then one
// fresh key per fresh request — and a schedule of n requests at serveRate.
// Cutoffs are log-uniform in [1, 10) s and all distinct.
func serveInputs(seed int64, n int) (bodies [][]byte, sched []serveReq, err error) {
	rng := rand.New(rand.NewSource(seed))
	seen := map[float64]bool{}
	draw := func() ([]byte, error) {
		for {
			tc := math.Pow(10, rng.Float64())
			if !seen[tc] {
				seen[tc] = true
				return json.Marshal(serveBody(tc))
			}
		}
	}
	for i := 0; i < serveHot; i++ {
		b, err := draw()
		if err != nil {
			return nil, nil, err
		}
		bodies = append(bodies, b)
	}
	// Each block of serveBlock requests holds exactly one fresh key at a
	// random place, so every seed sends the same mix.
	fresh := 0
	for i := 0; i < n; i++ {
		q := serveReq{due: time.Duration(float64(i) / serveRate * float64(time.Second))}
		if i%serveBlock == 0 {
			fresh = i + rng.Intn(serveBlock)
		}
		if i != fresh {
			q.hot, q.body = true, rng.Intn(serveHot)
		} else {
			b, err := draw()
			if err != nil {
				return nil, nil, err
			}
			q.body = len(bodies)
			bodies = append(bodies, b)
		}
		sched = append(sched, q)
	}
	return bodies, sched, nil
}

// liveServer is a serve.Server on a loopback listener.
type liveServer struct {
	reg    *obs.Registry
	hs     *http.Server
	url    string
	served chan error
}

// startServer serves cfg on 127.0.0.1 with admission capped at nproc.
func startServer(cfg serve.Config) (*liveServer, error) {
	cfg.MaxInflight = runtime.NumCPU()
	cfg.MaxQueue = 256
	cfg.CacheSize = 1 << 16
	cfg.Registry = obs.NewRegistry()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &liveServer{
		reg:    cfg.Registry,
		hs:     &http.Server{Handler: serve.New(cfg).Handler()},
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { l.served <- l.hs.Serve(ln) }()
	return l, nil
}

// stop shuts the server down and waits for its serve loop to return.
func (l *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := l.hs.Shutdown(ctx)
	if serr := <-l.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// response is one request's outcome, timed from the start of its phase.
type response struct {
	fired, done time.Duration
	status      int
	disposition string
	body        []byte
	err         error
}

// post sends one /v1/solve body.
func post(client *http.Client, url string, body []byte) (int, string, []byte, error) {
	resp, err := client.Post(url+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Lrd-Cache"), b, err
}

// counters reads the server's counters through GET /metrics?format=json,
// with each histogram's sum and count as <name>_sum and <name>_count.
func counters(client *http.Client, url string) (map[string]float64, error) {
	resp, err := client.Get(url + "/metrics?format=json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var snap struct {
		Counters   map[string]float64 `json:"counters"`
		Histograms map[string]struct {
			Count float64 `json:"count"`
			Sum   float64 `json:"sum"`
		} `json:"histograms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("decoding /metrics: %w", err)
	}
	out := snap.Counters
	if out == nil {
		out = map[string]float64{}
	}
	for name, h := range snap.Histograms {
		out[name+"_sum"], out[name+"_count"] = h.Sum, h.Count
	}
	return out, nil
}

// openLoop calls fire(i) for each request at its due time from one
// goroutine, never waiting for replies, and returns how late each call was
// made.
func openLoop(sched []serveReq, start time.Time, fire func(i int)) []time.Duration {
	late := make([]time.Duration, len(sched))
	for i, q := range sched {
		due := start.Add(q.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late[i] = time.Since(due)
		fire(i)
	}
	return late
}

// behind reports whether the generator fell behind its schedule.
func behind(late []time.Duration) bool {
	ms := make([]float64, len(late))
	for i, d := range late {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	return quantile(ms, 0.99) > float64(serveLateP99)/float64(time.Millisecond) ||
		quantile(ms, 1) > float64(serveLateMax)/float64(time.Millisecond)
}

// phase is one open-loop measurement against a live server.
type phase struct {
	hitMs, missMs []float64
	lateMaxMs     float64
	missBusy      float64 // Σ seconds fresh-key requests were in flight
	wall          float64
	alloc         uint64
	delta         map[string]float64 // counter deltas over the phase
}

// runPhase drives sched against l, gating every reply, and checks the
// counter identities against the benchmark's own counts.
func runPhase(r *run, l *liveServer, client *http.Client, bodies [][]byte, fills map[int][]byte, sched []serveReq, spans *spanLog) (phase, error) {
	before, err := counters(client, l.url)
	if err != nil {
		return phase{}, err
	}
	out := make([]response, len(sched))
	var wg sync.WaitGroup

	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	late := openLoop(sched, start, func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fired := time.Since(start)
			status, disp, body, err := post(client, l.url, bodies[sched[i].body])
			out[i] = response{fired: fired, done: time.Since(start), status: status, disposition: disp, body: body, err: err}
			spans.add("http.POST /v1/solve", 0, start.Add(fired), start.Add(out[i].done))
		}()
	})
	wg.Wait()
	wall := time.Since(start).Seconds()
	runtime.ReadMemStats(&ms1)
	if behind(late) {
		return phase{}, errBehind
	}
	after, err := counters(client, l.url)
	if err != nil {
		return phase{}, err
	}

	p := phase{wall: wall, alloc: ms1.TotalAlloc - ms0.TotalAlloc, delta: map[string]float64{}}
	for k, v := range after {
		p.delta[k] = v - before[k]
	}
	for _, d := range late {
		p.lateMaxMs = math.Max(p.lateMaxMs, float64(d)/float64(time.Millisecond))
	}
	var ok200, hits, misses, coalesced int
	for i, o := range out {
		ms := float64(o.done-sched[i].due) / float64(time.Millisecond)
		if !checkReply(r, o, sched[i].hot, fills[sched[i].body]) {
			r.ops(1, 1)
			continue
		}
		r.ops(1, 0)
		ok200++
		switch o.disposition {
		case "hit":
			hits++
			p.hitMs = append(p.hitMs, ms)
		case "miss":
			misses++
			p.missMs = append(p.missMs, ms)
			p.missBusy += (o.done - o.fired).Seconds()
		case "coalesced":
			coalesced++
		}
	}
	r.checkRun("serve.requests_identity", p.delta[obs.MetricServeRequests] == float64(len(sched)))
	r.checkRun("serve.dispositions_identity", hits+misses+coalesced == ok200 &&
		p.delta[obs.MetricServeCacheHits] == float64(hits) &&
		p.delta[obs.MetricServeCoalesced] == float64(coalesced))
	r.checkRun("serve.solves_identity", p.delta[obs.MetricSolverSolves] == float64(misses))
	r.checkRun("serve.littles_law", littlesLawLo <= littlesLaw(p) && littlesLaw(p) <= littlesLawHi)
	if len(p.hitMs) == 0 || len(p.missMs) == 0 {
		return phase{}, errors.New("the phase produced no hit or no miss")
	}
	return p, nil
}

// littlesLawLo and littlesLawHi bound the Little's-law ratio of
// littlesLaw. Each fresh-key request is in flight at the client for at
// least its solve, so the ratio is at least 1 up to rounding; HTTP and
// queueing add the rest. A drifting admission counter or solve histogram
// (a double count, a unit slip) moves it out of the band.
const littlesLawLo, littlesLawHi = 0.99, 10.0

// littlesLaw is L / (λ·W) for fresh-key requests: L is the time-averaged
// number in flight, measured exactly by the benchmark's clock; λ is the
// server's admission counter over the phase and W its mean solve time, from
// the serve_solve_seconds sum and count. The phase length divides both
// sides and cancels.
func littlesLaw(p phase) float64 {
	solve := obs.MetricServeSolveSeconds
	w := ratio(p.delta[solve+"_sum"], p.delta[solve+"_count"])
	return ratio(p.missBusy, p.delta[obs.MetricServeAdmitted]*w)
}

// checkReply gates one reply: status 200, a body that decodes with lower <=
// loss <= upper, and for a hot key a hit byte-equal to the key's first fill.
func checkReply(r *run, o response, hot bool, fill []byte) bool {
	ok := r.check("serve.transport", o.err == nil)
	ok = r.check("serve.status_200", o.status == http.StatusOK) && ok
	var body api.SolveResponse
	decoded := o.status == http.StatusOK && json.Unmarshal(o.body, &body) == nil
	ok = r.check("serve.body_bounds", decoded && body.Lower <= body.Loss && body.Loss <= body.Upper) && ok
	if hot {
		ok = r.check("serve.hit_byte_equal", o.disposition == "hit" && bytes.Equal(o.body, fill)) && ok
	}
	return ok
}

// setUpServer starts a server and solves the hot keys, returning their
// first-fill bodies.
func setUpServer(cfg serve.Config, client *http.Client, bodies [][]byte) (*liveServer, map[int][]byte, error) {
	l, err := startServer(cfg)
	if err != nil {
		return nil, nil, err
	}
	fills := map[int][]byte{}
	for i := 0; i < serveHot; i++ {
		status, disp, body, err := post(client, l.url, bodies[i])
		if err == nil && (status != http.StatusOK || disp != "miss") {
			err = fmt.Errorf("warming hot key %d: status %d, cache %q", i, status, disp)
		}
		if err != nil {
			return nil, nil, errors.Join(err, l.stop())
		}
		fills[i] = body
	}
	return l, fills, nil
}

func runServe(ctx context.Context, r *run) error {
	n := int(r.seconds.Seconds() * serveRate)
	bodies, sched, err := serveInputs(r.seed, n)
	if err != nil {
		return err
	}
	transport := &http.Transport{
		MaxConnsPerHost:     runtime.NumCPU(),
		MaxIdleConnsPerHost: runtime.NumCPU(),
		DisableCompression:  true,
	}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}

	// Set-up: start the server and warm the hot set, three times; the
	// last server is the one measured.
	var l *liveServer
	var fills map[int][]byte
	var setups []float64
	for i := 0; i < 3; i++ {
		if l != nil {
			if err := l.stop(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		if l, fills, err = setUpServer(serve.Config{}, client, bodies); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.set("setup_s", median(setups))

	if !r.trace {
		p, err := runPhase(r, l, client, bodies, fills, sched, nil)
		if err := errors.Join(err, l.stop()); err != nil {
			return err
		}
		r.set("op_ms", p.mixMs())
		r.set("alloc_kb_per_op", float64(p.alloc)/1024/float64(len(sched)))
		noteServe(r, p)
		return nil
	}

	// Traced run: the first half of the schedule untraced on the set-up
	// server, the second half on a server with the solver trace attached.
	half := len(sched) / 2
	plain, err := runPhase(r, l, client, bodies, fills, sched[:half], nil)
	if err := errors.Join(err, l.stop()); err != nil {
		return err
	}
	noteServe(r, plain)
	second := make([]serveReq, len(sched)-half)
	for i, q := range sched[half:] {
		q.due -= sched[half].due
		second[i] = q
	}
	tracer := newSolveTracer(r.spans)
	tl, tfills, err := setUpServer(serve.Config{Solver: solver.Config{Trace: tracer.point}}, client, bodies)
	if err != nil {
		return err
	}
	tracer.reset() // drop the warm-up solves
	fft.SetRecorder(tl.reg)
	traced, err := runPhase(r, tl, client, bodies, tfills, second, r.spans)
	fft.SetRecorder(nil)
	if err := errors.Join(err, tl.stop()); err != nil {
		return err
	}
	r.set("bench.trace_overhead_ratio", traced.mixMs()/plain.mixMs())
	r.set("bench.generator_late_ms.max", math.Max(plain.lateMaxMs, traced.lateMaxMs))
	d := traced.delta
	r.set("serve.hit_ratio", ratio(d[obs.MetricServeCacheHits], d[obs.MetricServeRequests]))
	r.set("serve.coalesced", d[obs.MetricServeCoalesced])
	r.set("serve.shed", d[obs.MetricServeShed])
	var errs float64
	for k, v := range d {
		if strings.HasPrefix(k, obs.MetricServeErrors) {
			errs += v
		}
	}
	r.set("serve.errors", errs)
	_, solveMs := tracer.solveSummary()
	r.set("serve.solve_ms.p50", quantile(solveMs, 0.5))
	r.set("serve.inflight_mean", traced.missBusy/traced.wall)
	r.set("serve.littles_law_ratio", littlesLaw(traced))

	var first api.SolveRequest
	if err := json.Unmarshal(bodies[0], &first); err != nil {
		return err
	}
	m, err := dist.NewMarginal([]float64{0, 2}, []float64{0.5, 0.5})
	if err != nil {
		return err
	}
	src, err := fluid.FromTraceStats(m, first.Hurst, first.Epoch, first.Cutoff)
	if err != nil {
		return err
	}
	model, err := solver.NewModelNormalized(source.NewFluid(src), first.Util, first.Buffer)
	if err != nil {
		return err
	}
	var resp api.SolveResponse
	if err := json.Unmarshal(fills[0], &resp); err != nil {
		return err
	}
	return solverLayers(r, func(name string) float64 { return d[name] }, tracer, layerInputs{
		model: model, inter: src.Interarrival, sizes: tracer.sizes(), req: first, resp: resp,
	})
}

// noteServe records the serve workload's headline latencies: median and
// p99 of hits and of misses, timed from when each request was due.
func noteServe(r *run, p phase) {
	r.note("serve_hit_p50_ms", quantile(p.hitMs, 0.5), "ms")
	r.note("serve_hit_p99_ms", quantile(p.hitMs, 0.99), "ms")
	r.note("serve_miss_p50_ms", quantile(p.missMs, 0.5), "ms")
	r.note("serve_miss_p99_ms", quantile(p.missMs, 0.99), "ms")
	r.note("hits", float64(len(p.hitMs)), "count")
	r.note("misses", float64(len(p.missMs)), "count")
	r.note("generator_late_ms_max", p.lateMaxMs, "ms")
	r.note("littles_law_ratio", littlesLaw(p), "ratio")
	if r.trace {
		r.set("serve.hit_p50_ms", quantile(p.hitMs, 0.5))
		r.set("serve.hit_p99_ms", quantile(p.hitMs, 0.99))
		r.set("serve.miss_p50_ms", quantile(p.missMs, 0.5))
		r.set("serve.miss_p99_ms", quantile(p.missMs, 0.99))
	}
}

// mixMs is the serve workload's headline latency: the median hit and the
// median miss, weighted by how many of each the phase served. Medians keep
// it steady where a mean follows the rare multi-millisecond stall; the
// weights keep both the cache path and the solve path in it.
func (p phase) mixMs() float64 {
	nh, nm := float64(len(p.hitMs)), float64(len(p.missMs))
	return (nh*median(p.hitMs) + nm*median(p.missMs)) / (nh + nm)
}
