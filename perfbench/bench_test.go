package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"khist/internal/serve"
)

func TestGenerateDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		a, err := generate(w, 7, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(w, 7, 1)
		c, _ := generate(w, 8, 1)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two plans from seed 7 differ", w)
		}
		if reflect.DeepEqual(bodies(a), bodies(c)) {
			t.Errorf("%s: seeds 7 and 8 generate the same requests", w)
		}
		if len(a.timed) != clients || len(a.warm) != clients {
			t.Errorf("%s: %d timed and %d warm lists, want %d", w, len(a.timed), len(a.warm), clients)
		}
	}
	if _, err := generate("nope", 1, 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

func bodies(p *plan) [][]byte {
	var out [][]byte
	for _, l := range append(p.warm, p.timed...) {
		for _, r := range l {
			out = append(out, r.body)
		}
	}
	return out
}

func TestWorkloadShapes(t *testing.T) {
	p, _ := generate(wlLearnCold, 3, 1)
	seen := map[string]bool{}
	ops := map[string]int{}
	for _, l := range append(p.warm, p.timed...) {
		for _, r := range l {
			if seen[string(r.body)] {
				t.Fatalf("learn_cold repeats a request: %s", r.body)
			}
			seen[string(r.body)] = true
		}
	}
	for _, l := range p.timed {
		for _, r := range l {
			ops[r.op]++
		}
	}
	if ops[opLearn] != 2*ops[opTestL2] || ops[opTestL2] != ops[opTestL1] {
		t.Errorf("learn_cold timed op mix %v, want 2:1:1", ops)
	}

	p, _ = generate(wlHotRepeat, 3, 1)
	qids, binary := map[int]bool{}, 0
	for _, l := range p.timed {
		for _, r := range l {
			if !qids[r.qid] && r.binary {
				binary++
			}
			qids[r.qid] = true
		}
	}
	if len(qids) != 256 || binary != 128 {
		t.Errorf("hot_repeat: %d distinct timed queries, %d binary, want 256 and 128", len(qids), binary)
	}

	p, _ = generate(wlIngest, 3, 1)
	for c, l := range p.timed {
		for i, r := range l {
			if r.op == opIngest && (i+1 >= len(l) || !l[i+1].fresh) {
				t.Fatalf("client %d: ingest %d not followed by a fresh read", c, i)
			}
		}
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // descending: the helper must sort
		}
		return out
	}
	if _, err := percentile(xs(999), 0.99); err == nil {
		t.Error("p99 of 999 samples (9 beyond) accepted")
	}
	v, err := percentile(xs(1000), 0.99)
	if err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	if _, err := percentile(xs(19), 0.5); err == nil {
		t.Error("p50 of 19 samples accepted")
	}
	if v, err := percentile(xs(20), 0.5); err != nil || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{4, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles of 1,2,4 = %v %v %v", q1, q2, q3)
	}
}

func TestProcParsing(t *testing.T) {
	stat := []byte("4242 (khist (x) srv) S 1 4242 4242 0 -1 4194560 900 0 0 0 150 50 0 0 20 0 9 0 100 2000000 500\n")
	cpu, err := procCPU(stat)
	if err != nil || cpu != 2.0 {
		t.Errorf("procCPU = %v, %v; want 2.0 s", cpu, err)
	}
	if _, err := procCPU([]byte("4242 (short) S 1")); err == nil {
		t.Error("truncated stat accepted")
	}
	status := []byte("Name:\tkhist-server\nVmPeak:\t  900000 kB\nVmHWM:\t  204800 kB\nVmRSS:\t  100 kB\n")
	rss, err := procPeakRSS(status)
	if err != nil || rss != 200 {
		t.Errorf("procPeakRSS = %v, %v; want 200 MiB", rss, err)
	}
	if _, err := procPeakRSS([]byte("Name:\tx\n")); err == nil {
		t.Error("status without VmHWM accepted")
	}
	// The live files parse too.
	own, err := readProc(os.Getpid(), "stat")
	if err != nil {
		t.Skip("no /proc:", err)
	}
	if _, err := procCPU(own); err != nil {
		t.Error(err)
	}
	own, _ = readProc(os.Getpid(), "status")
	if _, err := procPeakRSS(own); err != nil {
		t.Error(err)
	}
}

func TestStatsDiff(t *testing.T) {
	before := &serve.StatsResponse{
		Requests: 100, Shed: 1, CacheHits: 10, CacheMisses: 20,
		PerShard:      []serve.ShardStats{{CacheEvictions: 1, CacheEvictedBytes: 1e6}, {CacheEvictions: 0}},
		Tenants:       []serve.TenantStats{{ShedRate: 1}},
		ResponseCache: &serve.RespCacheStats{Hits: 5, Misses: 5, Invalidations: 2},
		Streams:       &serve.StreamPlaneStats{IngestBatches: 4, SketchBytes: 1000},
	}
	after := &serve.StatsResponse{
		Requests: 1100, Shed: 1, CacheHits: 40, CacheMisses: 80, Coalesced: 30,
		PerShard:      []serve.ShardStats{{CacheEvictions: 3, CacheEvictedBytes: 3e6}, {CacheEvictions: 2, CacheEvictedBytes: 2e6}},
		Tenants:       []serve.TenantStats{{ShedRate: 1, ShedConcurrency: 10}},
		ResponseCache: &serve.RespCacheStats{Hits: 905, Misses: 105, Invalidations: 12},
		Streams:       &serve.StreamPlaneStats{IngestBatches: 14, SketchBytes: 4000},
	}
	d := countersOf(after).sub(countersOf(before))
	want := map[string]float64{
		"serve.rcache_hit_ratio":                0.9,  // 900 / 1000
		"serve.bundle_hit_ratio":                0.25, // 30 / (30+60+30)
		"serve.bundle_evicted_mb_per_kq":        4,    // 4 MB over 1 kq
		"serve.rcache_invalidations_per_ingest": 1,    // 10 / 10
		"serve.shed_ratio":                      0.01, // 10 / 1000
		"stream.sketch_bytes":                   4000, // a level: the after value
	}
	got := d.layerMetrics(1000)
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-12 {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
	if z := (counters{}).layerMetrics(0); z["serve.rcache_hit_ratio"] != 0 || z["serve.shed_ratio"] != 0 {
		t.Errorf("idle layers should report 0, got %v", z)
	}
}

func TestSpanSelfTimes(t *testing.T) {
	// handle (100) with children snapshot (10), collect (30) and learn
	// (50); learn has a child (20). The root span has no parent.
	spans := []span{
		{Name: "serve.handle", ID: 1, Start: 0, End: 100},
		{Name: "stream.snapshot", ID: 2, Parent: 1, Start: 100, End: 110},
		{Name: "collision.collect_sets", ID: 3, Parent: 1, Start: 110, End: 140},
		{Name: "learn.from_tabulated", ID: 4, Parent: 1, Start: 140, End: 190},
		{Name: "inner", ID: 5, Parent: 4, Start: 150, End: 170},
		{Name: "par.pool_wait", ID: 6, Start: 135, End: 140},
	}
	self := selfTimes(spans)
	want := map[int32]int64{1: 10, 2: 10, 3: 30, 4: 30, 5: 20, 6: 5}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	// Children slower than their parent give a negative self time rather
	// than being clipped.
	if s := selfTimes([]span{{ID: 1, End: 10}, {ID: 2, Parent: 1, End: 15}}); s[1] != -5 {
		t.Errorf("self of an outrun parent = %d, want -5", s[1])
	}
}

// TestWireAgainstServer sends the generated binary and JSON requests to
// an in-process server and checks that the benchmark's decoders read
// the same answer from both encodings.
func TestWireAgainstServer(t *testing.T) {
	in, err := newInproc()
	if err != nil {
		t.Fatal(err)
	}
	defer in.close()
	d := in.doers()[0]
	g := &gen{seed: 1, truth: map[int][]float64{}}
	src := serve.SourceSpec{Gen: "zipf", N: 64}
	for _, op := range []string{opLearn, opTestL2, opTestL1} {
		var answers [2]any
		for i, binary := range []bool{false, true} {
			r := g.algo(op, "w", src, 4, 0.25, 0.02, 2000, 5, binary, pmfOf(src))
			status, _, body, _ := d.do(&r)
			if status != 200 {
				t.Fatalf("%s binary=%v: status %d: %s", op, binary, status, body)
			}
			if binary != bytes.HasPrefix(body, []byte(binRespMagic)) {
				t.Fatalf("%s binary=%v: answered in the other encoding", op, binary)
			}
			if op == opLearn {
				lr, err := decodeLearn(body, binary, src.N)
				if err != nil {
					t.Fatal(err)
				}
				if err := checkLearn(lr, src.N); err != nil {
					t.Error(err)
				}
				answers[i] = lr
			} else {
				tr, err := decodeTest(body, binary, op, src.N)
				if err != nil {
					t.Fatal(err)
				}
				if err := checkTest(tr, op, src.N, 4); err != nil {
					t.Error(err)
				}
				answers[i] = tr
			}
		}
		if !reflect.DeepEqual(answers[0], answers[1]) {
			t.Errorf("%s: JSON answer %+v, binary answer %+v", op, answers[0], answers[1])
		}
	}
}

func TestChecksRejectMalformedAnswers(t *testing.T) {
	good := serve.LearnResponse{N: 4, Bounds: []int{0, 1, 4}, Values: []float64{0.4, 0.2}, Pieces: 2}
	if err := checkLearn(&good, 4); err != nil {
		t.Fatal(err)
	}
	for name, mut := range map[string]func(r *serve.LearnResponse){
		"short bounds": func(r *serve.LearnResponse) { r.Bounds = []int{0, 1, 3} },
		"flat bounds":  func(r *serve.LearnResponse) { r.Bounds = []int{0, 0, 4} },
		"mass":         func(r *serve.LearnResponse) { r.Values = []float64{0.4, 0.21} },
		"negative":     func(r *serve.LearnResponse) { r.Values = []float64{1.6, -0.2} },
		"pieces":       func(r *serve.LearnResponse) { r.Pieces = 3 },
	} {
		r := good
		r.Bounds = append([]int(nil), good.Bounds...)
		r.Values = append([]float64(nil), good.Values...)
		mut(&r)
		if err := checkLearn(&r, 4); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	part := func(ivs ...int) []serve.IntervalJSON {
		var out []serve.IntervalJSON
		for i := 0; i+1 < len(ivs); i += 2 {
			out = append(out, serve.IntervalJSON{Lo: ivs[i], Hi: ivs[i+1]})
		}
		return out
	}
	for name, c := range map[string]struct {
		r    serve.TestResponse
		okay bool
	}{
		"accept":       {serve.TestResponse{Accept: true, Norm: "l2", Partition: part(0, 2, 2, 8)}, true},
		"reject":       {serve.TestResponse{Norm: "l2", Partition: part(0, 2, 2, 5)}, true},
		"gap":          {serve.TestResponse{Norm: "l2", Partition: part(0, 2, 3, 5)}, false},
		"false accept": {serve.TestResponse{Accept: true, Norm: "l2", Partition: part(0, 5)}, false},
		"wrong norm":   {serve.TestResponse{Norm: "l1", Partition: part(0, 8)}, false},
	} {
		if err := checkTest(&c.r, opTestL2, 8, 4); (err == nil) != c.okay {
			t.Errorf("%s: err %v", name, err)
		}
	}
}

func TestAddrWriterFindsListenLine(t *testing.T) {
	ch := make(chan string, 1)
	w := &addrWriter{addr: ch}
	for _, chunk := range []string{"noise\nkhist-server: listen", "ing on 127.0.0.1:4242 (shards=4)\nmore\n"} {
		w.Write([]byte(chunk))
	}
	if got := <-ch; got != "127.0.0.1:4242" {
		t.Errorf("address %q", got)
	}
	if n, _ := w.Write([]byte(strings.Repeat("x", 10))); n != 10 {
		t.Error("writes after the address must be discarded whole")
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric names and units the
// runs print in step with the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	type decl struct{ Name, Unit string }
	var spec struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	ph := &phase{reqs: [][]request{make([]request, 1000)}, out: [][]outcome{make([]outcome, 1000)}, wall: time.Second}
	lv := &liveRun{ph: ph, cpuS: 1}
	e2e := lv.endToEnd(newGate(&plan{}))
	e2e["setup_s"] = metric{1, "s"}
	check := func(kind string, declared []decl, units map[string]string) {
		if len(declared) != len(units) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark reports %d", kind, len(declared), len(units))
		}
		for _, d := range declared {
			if u, ok := units[d.Name]; !ok || u != d.Unit {
				t.Errorf("%s metric %s: declared unit %q, reported %q (present: %v)", kind, d.Name, d.Unit, u, ok)
			}
		}
	}
	e2eUnits := map[string]string{}
	for name, m := range e2e {
		e2eUnits[name] = m.Unit
	}
	check("end_to_end", spec.EndToEnd, e2eUnits)
	check("per_layer", spec.PerLayer, layerUnits)
}
