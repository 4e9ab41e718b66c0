package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"khist/internal/dist"
	"khist/internal/vopt"
)

func TestLatencyBucketScale(t *testing.T) {
	// Exact linear region.
	for us := int64(0); us < latLinear; us++ {
		if b := latencyBucket(us); int64(b) != us {
			t.Fatalf("latencyBucket(%d) = %d", us, b)
		}
	}
	// Monotone, with every value inside its bucket's [lo, hi) range.
	prev := -1
	for _, us := range []int64{0, 1, 15, 16, 17, 31, 32, 100, 999, 1000,
		12345, 1 << 20, 55_555_555, 1 << 26, (1 << 27) - 1, 1 << 27, 1 << 40} {
		b := latencyBucket(us)
		if b < prev {
			t.Fatalf("bucket not monotone at %dus: %d < %d", us, b, prev)
		}
		prev = b
		if b < 0 || b >= LatencyDomain {
			t.Fatalf("bucket %d out of domain for %dus", b, us)
		}
		lo, hi := BucketLoUS(b), BucketHiUS(b)
		if b == LatencyDomain-1 {
			// Top bucket absorbs the clamp; lo must still bound below.
			if us >= 1<<27 {
				continue
			}
		}
		if us < lo || us >= hi {
			t.Fatalf("%dus maps to bucket %d = [%d, %d)", us, b, lo, hi)
		}
		// HDR property: relative bucket width <= 12.5% beyond the linear
		// region (lo = (8+sub) * width for sub in [0, 8), by construction).
		if lo >= latLinear && b < LatencyDomain-1 {
			if w := hi - lo; lo%w != 0 || lo/w < 8 || lo/w > 15 {
				t.Fatalf("bucket %d = [%d, %d): width %d, want lo/width in [8, 15]", b, lo, hi, w)
			}
		}
	}
	// Negative durations clamp to bucket 0.
	if b := latencyBucket(-5); b != 0 {
		t.Fatalf("latencyBucket(-5) = %d", b)
	}
	// Edges tile the domain: BucketHiUS(b) == BucketLoUS(b+1) everywhere.
	for b := 0; b < LatencyDomain-1; b++ {
		if BucketHiUS(b) != BucketLoUS(b+1) {
			t.Fatalf("buckets %d/%d do not tile: hi=%d lo=%d", b, b+1, BucketHiUS(b), BucketLoUS(b+1))
		}
	}
}

func TestLabels(t *testing.T) {
	if got := Labels(); got != "" {
		t.Errorf("Labels() = %q", got)
	}
	if got := Labels("a", "x", "b", `q"u\o`+"\n"); got != `{a="x",b="q\"u\\o\n"}` {
		t.Errorf("Labels = %q", got)
	}
}

func TestRegistryRender(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("khist_test_total", "a test counter", "kind", "x")
	reg.Counter("khist_test_total", "a test counter", "kind", "y").Add(7)
	reg.Gauge("khist_test_gauge", "a gauge", func() float64 { return 1.5 })
	reg.CounterFunc("khist_test_mirror", "a mirror", func() float64 { return 3 })
	c.Inc()
	c.Add(2)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP khist_test_total a test counter\n# TYPE khist_test_total counter\n",
		`khist_test_total{kind="x"} 3`,
		`khist_test_total{kind="y"} 7`,
		"# TYPE khist_test_gauge gauge\nkhist_test_gauge 1.5",
		"khist_test_mirror 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
	// One HELP/TYPE block per family, not per series.
	if n := strings.Count(out, "# TYPE khist_test_total"); n != 1 {
		t.Errorf("family header appears %d times", n)
	}
}

func TestRecorderSnapshotAndLearn(t *testing.T) {
	reg := NewRegistry()
	rec := reg.Recorder("khist_test_latency", "test latency",
		RecorderOptions{Learned: true})

	// A cleanly bimodal latency population: 3/4 fast (~100us), 1/4 slow
	// (~50ms). The optimal 4-piece histogram must show both modes.
	for i := 0; i < 4000; i++ {
		if i%4 == 0 {
			rec.Observe(50 * time.Millisecond)
		} else {
			rec.Observe(100 * time.Microsecond)
		}
	}
	if rec.Count() != 4000 {
		t.Fatalf("Count = %d", rec.Count())
	}
	if rec.Latest() != nil {
		t.Fatal("Latest before any snapshot should be nil")
	}

	snap := rec.Snapshot(4)
	if snap == nil || rec.Latest() != snap {
		t.Fatal("Snapshot not stored as Latest")
	}
	if snap.Count != 4000 || snap.MaxUS < 50000 {
		t.Errorf("snapshot totals: count=%d max=%d", snap.Count, snap.MaxUS)
	}
	// Quantiles: p50 in the fast mode, p99 in the slow mode.
	if snap.P50US < 64 || snap.P50US > 256 {
		t.Errorf("p50 = %dus, want ~100us", snap.P50US)
	}
	if snap.P99US < 40000 || snap.P99US > 64000 {
		t.Errorf("p99 = %dus, want ~50ms", snap.P99US)
	}
	if snap.MeanUS < 10000 || snap.MeanUS > 16000 {
		t.Errorf("mean = %vus, want ~12575us", snap.MeanUS)
	}

	// The learned histogram exists, has <= k pieces and a sane mass sum.
	if len(snap.Pieces) == 0 || len(snap.Pieces) > 4 {
		t.Fatalf("learned recorder produced %d pieces, want 1..4", len(snap.Pieces))
	}
	var mass, fastMass, slowMass float64
	for _, p := range snap.Pieces {
		mass += p.Mass
		if p.HiUS <= 1000 {
			fastMass += p.Mass
		}
		if p.HiUS > 10000 {
			slowMass += p.Mass
		}
	}
	if mass < 0.95 || mass > 1.05 {
		t.Errorf("piece masses sum to %v", mass)
	}
	// The two modes must be visible in the learned histogram.
	if fastMass < 0.5 {
		t.Errorf("fast mode mass = %v, want ~0.75", fastMass)
	}
	if slowMass < 0.1 {
		t.Errorf("slow mode mass = %v, want ~0.25", slowMass)
	}
	// Two spikes need 5 pieces to fit exactly; with 4 the optimum spreads
	// the 0.25 spike over a piece of width w, costing 0.25^2 * (1 - 1/w).
	if snap.ErrL2 <= 0 || snap.ErrL2 >= 0.25*0.25 {
		t.Errorf("ErrL2 = %v, want in (0, 0.0625)", snap.ErrL2)
	}

	// Pieces tile [0, something] with monotone boundaries.
	for i := 1; i < len(snap.Pieces); i++ {
		if snap.Pieces[i].LoUS != snap.Pieces[i-1].HiUS {
			t.Errorf("pieces %d/%d do not tile: %v then %v", i-1, i, snap.Pieces[i-1], snap.Pieces[i])
		}
	}

	// Prometheus rendering carries the learned series.
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"khist_test_latency_count 4000",
		`khist_test_latency_us{quantile="0.5"}`,
		`khist_test_latency_us_bucket{le="+Inf"} 4000`,
		`khist_test_latency_learned_bucket{piece="0"`,
		"khist_test_latency_learned_pieces",
		"khist_test_latency_snapshots_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestRecorderSmallStream(t *testing.T) {
	rec := NewRecorder("r", "h", RecorderOptions{Learned: true})
	// Below minLearnSamples: snapshot still works, no learned pieces.
	for i := 0; i < minLearnSamples-1; i++ {
		rec.Observe(time.Millisecond)
	}
	snap := rec.Snapshot(4)
	if snap.Count != int64(minLearnSamples-1) {
		t.Fatalf("Count = %d", snap.Count)
	}
	if len(snap.Pieces) != 0 {
		t.Errorf("learned %d pieces from %d samples", len(snap.Pieces), snap.Count)
	}
	// Empty recorder snapshots cleanly too.
	empty := NewRecorder("e", "h", RecorderOptions{})
	if s := empty.Snapshot(4); s.Count != 0 || len(s.Pieces) != 0 {
		t.Errorf("empty snapshot: %+v", s)
	}
}

func TestRecorderConcurrent(t *testing.T) {
	rec := NewRecorder("r", "h", RecorderOptions{Learned: true})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // snapshots race observations
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				rec.Snapshot(3)
			}
		}
	}()
	const (
		writers = 8
		perW    = 5000
	)
	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			for i := 0; i < perW; i++ {
				rec.Observe(time.Duration(w*100+i%50) * time.Microsecond)
			}
		}(w)
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	if rec.Count() != writers*perW {
		t.Fatalf("Count = %d, want %d", rec.Count(), writers*perW)
	}
	snap := rec.Snapshot(3)
	if snap.Count != writers*perW {
		t.Errorf("snapshot Count = %d, want %d", snap.Count, writers*perW)
	}
	if snap.CumLE[len(snap.CumLE)-1] != writers*perW {
		t.Errorf("CumLE = %v, want every observation under the top le", snap.CumLE)
	}
}

func TestRecorderExactQuantiles(t *testing.T) {
	// 1000 observations whose nearest-rank quantiles land exactly on
	// population boundaries: rank 500 is the last 10us observation, rank
	// 900 the last 300us one, rank 990 the last 5ms one.
	rec := NewRecorder("r", "h", RecorderOptions{})
	pop := []struct {
		us, n int64
	}{{10, 500}, {300, 400}, {5000, 90}, {70000, 10}}
	var sum int64
	var all []int64
	for _, p := range pop {
		for i := int64(0); i < p.n; i++ {
			rec.Observe(time.Duration(p.us) * time.Microsecond)
			all = append(all, p.us)
			sum += p.us
		}
	}
	snap := rec.Snapshot(0)
	for _, q := range []struct {
		name    string
		got, us int64
	}{{"p50", snap.P50US, 10}, {"p90", snap.P90US, 300}, {"p99", snap.P99US, 5000}} {
		if want := BucketLoUS(latencyBucket(q.us)); q.got != want {
			t.Errorf("%s = %dus, want %dus (bucket of %dus)", q.name, q.got, want, q.us)
		}
	}
	if snap.Count != 1000 || snap.MaxUS != 70000 || snap.MeanUS != float64(sum)/1000 {
		t.Errorf("totals: count=%d max=%d mean=%v", snap.Count, snap.MaxUS, snap.MeanUS)
	}
	for i, le := range fixedLE {
		var want int64
		for _, us := range all {
			if us <= le {
				want++
			}
		}
		if snap.CumLE[i] != want {
			t.Errorf("CumLE[le=%d] = %d, want %d", le, snap.CumLE[i], want)
		}
	}
}

func TestRecorderCumLEEdges(t *testing.T) {
	for i, le := range fixedLE {
		if BucketLoUS(latencyBucket(le+1)) != le+1 {
			t.Fatalf("le=%d: le+1 is not a bucket lower edge", le)
		}
		// An observation of exactly le counts in its own series and every
		// wider one; le+1 only from the next series on.
		for _, c := range []struct {
			us    int64
			first int
		}{{le, i}, {le + 1, i + 1}} {
			reg := NewRegistry()
			rec := reg.Recorder("khist_edge", "h", RecorderOptions{})
			rec.Observe(time.Duration(c.us) * time.Microsecond)
			snap := rec.Snapshot(0)
			var out strings.Builder
			if err := reg.WritePrometheus(&out); err != nil {
				t.Fatal(err)
			}
			for j, le2 := range fixedLE {
				want := int64(0)
				if j >= c.first {
					want = 1
				}
				if snap.CumLE[j] != want {
					t.Errorf("observe %dus: CumLE[le=%d] = %d, want %d", c.us, le2, snap.CumLE[j], want)
				}
				line := fmt.Sprintf("khist_edge_us_bucket{le=\"%d\"} %d\n", le2, want)
				if !strings.Contains(out.String(), line) {
					t.Errorf("observe %dus: render missing %q", c.us, line)
				}
			}
		}
	}
}

func TestRecorderLearnedIsVOptimal(t *testing.T) {
	rec := NewRecorder("r", "h", RecorderOptions{Learned: true})
	w := make([]float64, LatencyDomain)
	for i := 0; i < 5000; i++ {
		us := int64(40 + (i*37)%400)
		if i%7 == 0 {
			us = int64(3000 + (i*911)%60000)
		}
		rec.Observe(time.Duration(us) * time.Microsecond)
		w[latencyBucket(us)]++
	}
	const k = 6
	snap := rec.Snapshot(k)
	p, err := dist.FromWeights(w)
	if err != nil {
		t.Fatal(err)
	}
	h, err := vopt.OptimalL2(p, k)
	if err != nil {
		t.Fatal(err)
	}
	bounds, values := h.Bounds(), h.Values()
	if len(snap.Pieces) != len(values) || snap.LearnedK != len(values) {
		t.Fatalf("learned %d pieces (LearnedK %d), DP has %d", len(snap.Pieces), snap.LearnedK, len(values))
	}
	for j, pc := range snap.Pieces {
		want := LatencyPiece{
			LoUS: BucketLoUS(bounds[j]),
			HiUS: BucketLoUS(bounds[j+1]),
			Mass: values[j] * float64(bounds[j+1]-bounds[j]),
		}
		if pc != want {
			t.Errorf("piece %d = %+v, want %+v", j, pc, want)
		}
	}
	wantErr, err := vopt.OptimalL2Error(p, k)
	if err != nil {
		t.Fatal(err)
	}
	if snap.ErrL2 != wantErr {
		t.Errorf("ErrL2 = %v, want OptimalL2Error %v", snap.ErrL2, wantErr)
	}
}
