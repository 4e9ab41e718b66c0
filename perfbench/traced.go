package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"khist/internal/cli"
	"khist/internal/collision"
	"khist/internal/dist"
	"khist/internal/histtest"
	"khist/internal/learn"
	"khist/internal/obs"
	"khist/internal/obs/trace"
	"khist/internal/par"
	"khist/internal/serve"
	"khist/internal/stream"
)

// The traced run replays a workload's request list in this process.
// Each request goes once through serve.New(...).Handler().ServeHTTP
// (pass 1, span "serve.handle"), and then a second time through the
// public calls the handler made for it, chosen by the cache status the
// handler returned (pass 2): nothing for "rhit", the learner or tester
// for "hit", and source resolution, tabulation and the learner or
// tester for "miss". The pass-2 spans are the handle span's children,
// so the handler's self time is its duration minus theirs.

// span is one timed call. Spans of one request share req.
type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// spanLog buffers one replay client's spans in memory; they are written
// out when the run ends.
type spanLog struct {
	origin time.Time
	client int32
	spans  []span
}

// add records a span and returns its id (unique across clients).
func (l *spanLog) add(name string, req int64, parent int32, t0, t1 time.Time) int32 {
	id := l.client<<24 | int32(len(l.spans)+1)
	l.spans = append(l.spans, span{Name: name, Req: req, ID: id, Parent: parent,
		Start: t0.Sub(l.origin).Nanoseconds(), End: t1.Sub(l.origin).Nanoseconds()})
	return id
}

// selfTimes returns each span's self time: its duration minus the
// durations of its children. Pass-2 children run after their parent
// rather than inside it, so the subtraction is of durations, not of
// covered intervals, and a self time can come out negative when the
// direct calls ran slower than inside the handler.
func selfTimes(spans []span) map[int32]int64 {
	self := make(map[int32]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.dur()
		if s.Parent != 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// inprocConfig is khist-server's default configuration (its flag
// defaults), so the in-process replay serves like the live server.
func inprocConfig() serve.Config {
	return serve.Config{
		Shards:             4,
		WorkersPerShard:    runtime.GOMAXPROCS(0),
		CacheBytes:         256 << 20,
		ResponseCacheBytes: serve.DefaultResponseCacheBytes,
	}
}

// inproc is a server handler in this process.
type inproc struct {
	srv *serve.Server
	h   http.Handler
	ds  []*handlerDoer
}

func newInproc() (*inproc, error) {
	srv, err := serve.New(inprocConfig())
	if err != nil {
		return nil, err
	}
	t := &inproc{srv: srv, h: srv.Handler()}
	for c := 0; c < clients; c++ {
		t.ds = append(t.ds, &handlerDoer{h: t.h, record: true})
	}
	return t, nil
}

func (t *inproc) doers() []doer {
	ds := make([]doer, len(t.ds))
	for i, d := range t.ds {
		ds[i] = d
	}
	return ds
}

func (t *inproc) stats() (*serve.StatsResponse, error) {
	w := httptest.NewRecorder()
	t.h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var st serve.StatsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		return nil, fmt.Errorf("in-process /v1/stats: %w", err)
	}
	return &st, nil
}

func (t *inproc) close() {
	t.srv.Close()
	runtime.GC()
	debug.FreeOSMemory()
}

// handlerDoer calls the handler directly. While record is set it
// keeps the ServeHTTP interval of its last request for the span.
type handlerDoer struct {
	h      http.Handler
	record bool
	t0, t1 time.Time
}

func (d *handlerDoer) do(r *request) (int, string, []byte, error) {
	req := httptest.NewRequest(http.MethodPost, opPath[r.op], bytes.NewReader(r.body))
	setHeaders(req, r)
	w := httptest.NewRecorder()
	if d.record {
		d.t0 = time.Now()
	}
	d.h.ServeHTTP(w, req)
	if d.record {
		d.t1 = time.Now()
	}
	return w.Code, w.Header().Get(serve.CacheHeader), w.Body.Bytes(), nil
}

// overheadShare is the share of each client's timed list the overhead
// pass sends.
const overheadShare = 4

// overheadBlock is the number of consecutive requests the overhead pass
// sends with span recording on, then off, in turn. Eight requests hold
// two 2:1:1 op-mix blocks of learn_cold and one ingest cycle of
// ingest_relearn, so the on and off blocks carry the same request mix.
const overheadBlock = 8

// traceOverhead prices pass 1's span recording (the clock reads around
// ServeHTTP and the span append) on one in-process server: after the
// warm-up, it sends the first quarter of each client's timed list with
// recording on and off in alternate blocks, and returns how much longer
// a request took with recording on, in percent of the time with it off.
// Pass 2 runs after the handler, not inside it, so it is not priced.
func traceOverhead(p *plan, g *gate) (float64, error) {
	t, err := newInproc()
	if err != nil {
		return 0, err
	}
	defer t.close()
	if err := warmUp("overhead.warm", p, g, t); err != nil {
		return 0, err
	}
	on := func(c, i int) bool { return (i/overheadBlock+c)%2 == 0 }
	head := make([][]request, clients)
	logs := make([]*spanLog, clients)
	for c := range head {
		head[c] = p.timed[c][:len(p.timed[c])/overheadShare]
		logs[c] = &spanLog{origin: time.Now(), client: int32(c)}
		t.ds[c].record = on(c, 0)
	}
	ph := runPhase("overhead.timed", head, t.doers(), func(c, i int, _ *request, _ *outcome) {
		d := t.ds[c]
		if d.record {
			logs[c].add("serve.handle", reqID(c, i), 0, d.t0, d.t1)
		}
		d.record = on(c, i+1)
	})
	g.check(ph, false)
	// A request's share of the phase runs from its start to the next
	// request's start: the call and its hook. Medians keep a GC pause or
	// a burst of outside load in one block from deciding the figure.
	var secs [2][]float64 // indexed by recording off (0) or on (1)
	for c, l := range ph.out {
		for i := 0; i+1 < len(l); i++ {
			k := 0
			if on(c, i) {
				k = 1
			}
			secs[k] = append(secs[k], (l[i+1].end - l[i+1].lat - (l[i].end - l[i].lat)).Seconds())
		}
	}
	return 100 * (ratio(median(secs[1]), median(secs[0])) - 1), nil
}

// tracedRun performs the overhead pass and the traced replay and
// returns the per-layer metrics, including the server-counter ones of
// the live run.
func tracedRun(cfg config, p *plan, g *gate, lv *liveRun) (map[string]metric, error) {
	overhead, err := traceOverhead(p, g)
	if err != nil {
		return nil, err
	}

	// Traced replay, pass 1.
	tr, err := newInproc()
	if err != nil {
		return nil, err
	}
	if err := warmUp("replay.warm", p, g, tr); err != nil {
		return nil, err
	}
	origin := time.Now()
	logs := make([]*spanLog, clients)
	handleIDs := make([][]int32, clients)
	for c := range logs {
		logs[c] = &spanLog{origin: origin, client: int32(c)}
		handleIDs[c] = make([]int32, len(p.timed[c]))
	}
	ph := runPhase("replay.timed", p.timed, tr.doers(), func(c, i int, r *request, o *outcome) {
		d := tr.ds[c]
		handleIDs[c][i] = logs[c].add("serve.handle", reqID(c, i), 0, d.t0, d.t1)
	})
	g.check(ph, false)
	tr.close()

	// Pass 2: the same lists, through the layers' public calls.
	dec := newDecomposer()
	dec.replay(p, ph, logs, handleIDs)
	for _, v := range dec.diverged {
		g.violate("traced replay: %s", v)
	}

	var spans []span
	for _, l := range logs {
		spans = append(spans, l.spans...)
	}
	path := filepath.Join(spanDir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := writeSpans(path, spans); err != nil {
		return nil, err
	}
	fmt.Printf("spans %d written to %s\n", len(spans), path)

	layers := layerMetrics(spans, dec, ph.sent())
	for name, v := range lv.delta.layerMetrics(lv.ph.sent()) {
		layers[name] = v
	}
	lat := lv.ph.latenciesMS()
	layers["http.transport_us_p50"] = 1000*median(lat) - layers["serve.handle_us_p50"]
	layers["bench.trace_overhead_pct"] = overhead
	for name, v := range microLayers(spans) {
		layers[name] = v
	}
	out := map[string]metric{}
	for name, v := range layers {
		out[name] = metric{v, layerUnits[name]}
	}
	return out, nil
}

func reqID(c, i int) int64 { return int64(c)<<32 | int64(i) }

// layerUnits names the unit of every per-layer metric.
var layerUnits = map[string]string{
	"serve.rcache_hit_ratio":                "ratio",
	"serve.bundle_hit_ratio":                "ratio",
	"serve.bundle_evicted_mb_per_kq":        "MB/kq",
	"serve.rcache_invalidations_per_ingest": "count",
	"serve.shed_ratio":                      "ratio",
	"serve.handle_us_p50":                   "us",
	"serve.handle_us_p99":                   "us",
	"serve.self_us_p50":                     "us",
	"http.transport_us_p50":                 "us",
	"collision.collect_sets_us_p50":         "us",
	"collision.collect_sets_us_p99":         "us",
	"collision.samples_per_query":           "count",
	"learn.from_tabulated_us_p50":           "us",
	"learn.from_tabulated_us_p99":           "us",
	"learn.candidates_per_query":            "count",
	"learn.iterations_per_query":            "count",
	"learn.ns_per_candidate":                "ns",
	"histtest.l2_us_p50":                    "us",
	"histtest.l1_us_p50":                    "us",
	"stream.ingest_us_p50":                  "us",
	"stream.snapshot_us_p50":                "us",
	"stream.sketch_bytes":                   "bytes",
	"obs.observe_ns":                        "ns",
	"obs.snapshot_ms":                       "ms",
	"trace.start_finish_ns":                 "ns",
	"par.pool_wait_us_p50":                  "us",
	"bench.trace_overhead_pct":              "%",
}

// layerPct is a per-layer percentile in microseconds of span
// durations. A layer the workload does not exercise, or exercises too
// rarely for the percentile, reports 0 and says so.
func layerPct(name string, durNS []float64, q float64) float64 {
	if len(durNS) == 0 {
		fmt.Printf("layer %s p%g: not exercised by this workload (reported as 0)\n", name, 100*q)
		return 0
	}
	v, err := percentile(durNS, q)
	if err != nil {
		fmt.Printf("layer %s: %v (reported as 0)\n", name, err)
		return 0
	}
	return v / 1000
}

// layerMetrics derives the span-based per-layer metrics.
func layerMetrics(spans []span, dec *decomposer, replayed int) map[string]float64 {
	by := map[string][]float64{}
	for _, s := range spans {
		by[s.Name] = append(by[s.Name], float64(s.dur()))
	}
	self := selfTimes(spans)
	var handleSelf []float64
	for _, s := range spans {
		if s.Name == "serve.handle" {
			handleSelf = append(handleSelf, float64(self[s.ID]))
		}
	}
	var learnNS float64
	for _, d := range by["learn.from_tabulated"] {
		learnNS += d
	}
	calls := float64(len(by["learn.from_tabulated"]))
	return map[string]float64{
		"serve.handle_us_p50":           layerPct("serve.handle", by["serve.handle"], 0.5),
		"serve.handle_us_p99":           layerPct("serve.handle", by["serve.handle"], 0.99),
		"serve.self_us_p50":             layerPct("serve.self", handleSelf, 0.5),
		"collision.collect_sets_us_p50": layerPct("collision.collect_sets", by["collision.collect_sets"], 0.5),
		"collision.collect_sets_us_p99": layerPct("collision.collect_sets", by["collision.collect_sets"], 0.99),
		"collision.samples_per_query":   ratio(float64(dec.samples), float64(replayed)),
		"learn.from_tabulated_us_p50":   layerPct("learn.from_tabulated", by["learn.from_tabulated"], 0.5),
		"learn.from_tabulated_us_p99":   layerPct("learn.from_tabulated", by["learn.from_tabulated"], 0.99),
		"learn.candidates_per_query":    ratio(float64(dec.candidates), calls),
		"learn.iterations_per_query":    ratio(float64(dec.iterations), calls),
		"learn.ns_per_candidate":        ratio(learnNS, float64(dec.candidates)),
		"histtest.l2_us_p50":            layerPct("histtest.l2", by["histtest.l2"], 0.5),
		"histtest.l1_us_p50":            layerPct("histtest.l1", by["histtest.l1"], 0.5),
		"stream.ingest_us_p50":          layerPct("stream.ingest", by["stream.ingest"], 0.5),
		"stream.snapshot_us_p50":        layerPct("stream.snapshot", by["stream.snapshot"], 0.5),
		"par.pool_wait_us_p50":          layerPct("par.pool_wait", by["par.pool_wait"], 0.5),
	}
}

// microLayers times the obs and trace calls every request makes inside
// the server, fed with this replay's handler durations: Recorder.Observe
// per request, Recorder.Snapshot per metrics window, and an unsampled
// Tracer.Start+Finish per request.
func microLayers(spans []span) map[string]float64 {
	var durs []time.Duration
	for _, s := range spans {
		if s.Name == "serve.handle" {
			durs = append(durs, time.Duration(s.dur()))
		}
	}
	// Repeat the population so each timed loop runs long enough for the
	// clock to resolve it.
	const minCalls = 200000
	reps := max(1, (minCalls+len(durs)-1)/len(durs))

	rec := obs.NewRecorder("perfbench_latency", "", obs.RecorderOptions{Learned: true})
	t0 := time.Now()
	for range reps {
		for _, d := range durs {
			rec.Observe(d)
		}
	}
	observeNS := float64(time.Since(t0).Nanoseconds()) / float64(reps*len(durs))

	var snaps []float64
	for range 5 {
		t := time.Now()
		rec.Snapshot(serve.DefaultMetricsK)
		snaps = append(snaps, float64(time.Since(t).Nanoseconds())/1e6)
	}

	// SampleN 0 and no slow threshold: every trace takes the unsampled
	// path the server's hot path takes for 15 of every 16 requests.
	tr := trace.New(trace.Config{})
	t0 = time.Now()
	for range reps {
		for _, d := range durs {
			tr.Finish(tr.Start(0), "learn", http.StatusOK, d)
		}
	}
	traceNS := float64(time.Since(t0).Nanoseconds()) / float64(reps*len(durs))
	return map[string]float64{
		"obs.observe_ns":        observeNS,
		"obs.snapshot_ms":       median(snaps),
		"trace.start_finish_ns": traceNS,
	}
}

// decomposer runs pass 2 and counts the work the layers did.
type decomposer struct {
	workers    int
	pool       *par.Pool
	samples    int64
	candidates int64
	iterations int64
	diverged   []string
}

func newDecomposer() *decomposer {
	w := runtime.GOMAXPROCS(0)
	return &decomposer{workers: w, pool: par.NewPool(w)}
}

// clientState is one replay client's pass-2 state: stream mirrors fed
// the same batches as the server's sketches, and resolved sources.
type clientState struct {
	log                             *spanLog
	mirrors                         map[string]*stream.TStream
	dists                           map[string]*dist.Distribution
	samples, candidates, iterations int64
	diverged                        []string
}

// replay runs pass 2 for every client concurrently, submitting learner
// and tester runs to one shared pool as the server's shard does.
func (dec *decomposer) replay(p *plan, ph *phase, logs []*spanLog, handleIDs [][]int32) {
	states := make([]*clientState, clients)
	done := make(chan int, clients)
	for c := range states {
		states[c] = &clientState{log: logs[c], mirrors: map[string]*stream.TStream{}, dists: map[string]*dist.Distribution{}}
		go func(c int) {
			st := states[c]
			for _, r := range p.warm[c] {
				if r.op == opIngest {
					st.mirror(r.ingest).Ingest(r.ingest.Values)
				}
			}
			for i := range p.timed[c] {
				o := &ph.out[c][i]
				if o.status == http.StatusOK {
					dec.one(st, &p.timed[c][i], o, ph.first[c][p.timed[c][i].qid], reqID(c, i), handleIDs[c][i])
				}
			}
			done <- c
		}(c)
	}
	for range states {
		<-done
	}
	dec.pool.Close()
	for _, st := range states {
		dec.samples += st.samples
		dec.candidates += st.candidates
		dec.iterations += st.iterations
		dec.diverged = append(dec.diverged, st.diverged...)
	}
}

func (st *clientState) mirror(in *serve.IngestRequest) *stream.TStream {
	ts := st.mirrors[in.Stream]
	if ts == nil {
		var err error
		ts, err = stream.NewTStream(in.N, serve.DefaultStreamBuckets, serve.DefaultStreamReservoir, stream.SeedFor(in.Tenant, in.Stream))
		if err != nil {
			panic(fmt.Sprintf("perfbench: stream mirror: %v", err))
		}
		st.mirrors[in.Stream] = ts
	}
	return ts
}

// one decomposes a single request. body is the handler's answer to the
// request's qid, which the direct calls must reproduce.
func (dec *decomposer) one(st *clientState, r *request, o *outcome, body []byte, req int64, parent int32) {
	if r.op == opIngest {
		ts := st.mirror(r.ingest)
		t0 := time.Now()
		ts.Ingest(r.ingest.Values)
		st.log.add("stream.ingest", req, parent, t0, time.Now())
		return
	}
	if o.cache == "rhit" {
		return
	}
	miss := o.cache == serve.StatusMiss
	src, tenant, seed, capN := sourceOf(r)
	var d *dist.Distribution
	if src.Stream != "" {
		ts := st.mirrors[src.Stream]
		t0 := time.Now()
		snap := ts.Snapshot()
		if miss {
			st.log.add("stream.snapshot", req, parent, t0, time.Now())
		}
		d = snap.Dist
	} else {
		key := fmt.Sprintf("%s|%d|%d|%d", src.Gen, src.N, src.K, src.Seed)
		if d = st.dists[key]; d == nil {
			var err error
			if d, err = cli.Generate(src.Gen, src.N, src.K, src.Seed); err != nil {
				panic(fmt.Sprintf("perfbench: source of %s for %s: %v", r.op, tenant, err))
			}
			st.dists[key] = d
		}
	}
	n := d.N()
	sizes := dec.sizes(r, n, capN)
	t0 := time.Now()
	sets := drawSets(d, seed, sizes, dec.workers)
	if miss {
		st.log.add("collision.collect_sets", req, parent, t0, time.Now())
		for _, m := range sizes {
			st.samples += int64(m)
		}
	}

	var (
		t1, t2 time.Time
		lres   *learn.Result
		tres   *histtest.Result
		err    error
	)
	submit := time.Now()
	wait := dec.pool.DoTimed(func() {
		t1 = time.Now()
		switch r.op {
		case opLearn:
			lres, err = learn.FromTabulated(n, sets[0], sets[1:], dec.learnOpts(r.learn, capN), !r.learn.Full)
		case opTestL2:
			tres, err = histtest.TestTilingL2FromSets(sets, n, dec.testOpts(r.test, capN))
		case opTestL1:
			tres, err = histtest.TestTilingL1FromSets(sets, n, dec.testOpts(r.test, capN))
		}
		t2 = time.Now()
	})
	st.log.add("par.pool_wait", req, 0, submit, submit.Add(wait))
	name := map[string]string{opLearn: "learn.from_tabulated", opTestL2: "histtest.l2", opTestL1: "histtest.l1"}[r.op]
	st.log.add(name, req, parent, t1, t2)
	if err != nil {
		st.diverged = append(st.diverged, fmt.Sprintf("%s request %d: direct call failed: %v", r.op, req, err))
		return
	}
	if lres != nil {
		st.candidates += lres.CandidatesScanned
		st.iterations += int64(lres.Iterations)
		if lr, derr := decodeLearn(body, r.binary, r.n); derr != nil || !slices.Equal(lr.Bounds, lres.Tiling.Bounds()) ||
			!slices.Equal(lr.Values, lres.Tiling.Values()) || lr.CandidatesScanned != lres.CandidatesScanned {
			st.diverged = append(st.diverged, fmt.Sprintf("learn request %d: direct learner disagrees with the handler's answer", req))
		}
	}
	if tres != nil {
		if tr, derr := decodeTest(body, r.binary, r.op, r.n); derr != nil || tr.Accept != tres.Accept || len(tr.Partition) != len(tres.Partition) ||
			tr.FlatnessCalls != tres.FlatnessCalls {
			st.diverged = append(st.diverged, fmt.Sprintf("%s request %d: direct tester disagrees with the handler's answer", r.op, req))
		}
	}
}

func sourceOf(r *request) (src serve.SourceSpec, tenant string, seed int64, capN int) {
	if r.learn != nil {
		return r.learn.Source, r.learn.Tenant, r.learn.Seed, r.learn.Cap
	}
	return r.test.Source, r.test.Tenant, r.test.Seed, r.test.Cap
}

// sampleCap is the server's effective per-set cap (see serve.Server).
func sampleCap(reqCap int) int {
	if reqCap > 0 && reqCap < serve.DefaultMaxSamplesPerSet {
		return reqCap
	}
	return serve.DefaultMaxSamplesPerSet
}

func (dec *decomposer) learnOpts(r *serve.LearnRequest, capN int) learn.Options {
	return learn.Options{K: r.K, Eps: r.Eps, SampleScale: r.Scale, MaxSamplesPerSet: sampleCap(capN), Parallelism: dec.workers}
}

func (dec *decomposer) testOpts(r *serve.TestRequest, capN int) histtest.Options {
	return histtest.Options{K: r.K, Eps: r.Eps, SampleScale: r.Scale, MaxSamplesPerSet: sampleCap(capN), Parallelism: dec.workers}
}

// sizes is the sample-set profile the handler draws for r: the
// learner's weight set then its collision sets, or the tester's sets.
func (dec *decomposer) sizes(r *request, n, capN int) []int {
	var ell, rr, m int
	var err error
	switch r.op {
	case opLearn:
		ell, rr, m, err = dec.learnOpts(r.learn, capN).SetSizes(n)
	case opTestL2:
		rr, m, err = dec.testOpts(r.test, capN).PlanL2(n)
	case opTestL1:
		rr, m, err = dec.testOpts(r.test, capN).PlanL1(n)
	}
	if err != nil {
		panic(fmt.Sprintf("perfbench: %s sample plan: %v", r.op, err))
	}
	var sizes []int
	if ell > 0 {
		sizes = append(sizes, ell)
	}
	for range rr {
		sizes = append(sizes, m)
	}
	return sizes
}

// drawSets is the handler's tabulation: a sampler seeded by the
// request seed and the sets drawn through the batched sample plane.
func drawSets(d *dist.Distribution, seed int64, sizes []int, workers int) []*dist.Empirical {
	sampler := dist.NewSampler(d, par.NewRand(uint64(seed)))
	return collision.CollectSetsSized(sampler, sizes, workers, uint64(seed))
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
