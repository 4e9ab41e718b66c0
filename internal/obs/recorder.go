package obs

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"khist/internal/dist"
	"khist/internal/vopt"
)

// The latency domain. Durations are mapped to a small discrete domain so
// exact counts fit in one fixed array and the O(n^2 k) v-optimal DP
// stays cheap enough to run in the background: microsecond-exact
// buckets below 16us, then 8 sub-buckets per power of two
// (HDR-histogram style, <= 12.5% relative width) up to ~134s. The
// mapping is integer-only and monotone, so learned bucket boundaries
// translate back to microsecond ranges exactly.
const (
	latLinear  = 16 // exact 1us buckets for [0, 16) us
	latSubBits = 3
	latSub     = 1 << latSubBits // sub-buckets per octave
	latMaxExp  = 27              // values >= 2^27 us (~134s) clamp to the top bucket

	// LatencyDomain is the recorder's domain size n: every observation
	// maps to a bucket index in [0, LatencyDomain).
	LatencyDomain = latLinear + (latMaxExp-4)*latSub
)

// latencyBucket maps a non-negative microsecond value to its domain
// bucket.
func latencyBucket(us int64) int {
	if us < 0 {
		us = 0
	}
	if us < latLinear {
		return int(us)
	}
	e := bits.Len64(uint64(us)) // e >= 5: 2^(e-1) <= us < 2^e
	if e > latMaxExp {
		return LatencyDomain - 1
	}
	sub := int(us>>(e-1-latSubBits)) & (latSub - 1)
	return latLinear + (e-5)*latSub + sub
}

// BucketLoUS returns the inclusive microsecond lower edge of bucket b.
func BucketLoUS(b int) int64 {
	if b < 0 {
		return 0
	}
	if b < latLinear {
		return int64(b)
	}
	if b >= LatencyDomain {
		return int64(1) << latMaxExp
	}
	oct := (b - latLinear) / latSub // e = oct + 5
	sub := (b - latLinear) % latSub
	return int64(latSub+sub) << (oct + 4 - latSubBits)
}

// BucketHiUS returns the exclusive microsecond upper edge of bucket b.
func BucketHiUS(b int) int64 { return BucketLoUS(b + 1) }

// RecorderOptions configures a Recorder.
type RecorderOptions struct {
	// Learned marks the recorder for k-histogram learning: Snapshot runs
	// the exact v-optimal DP over the bucket counts and publishes the
	// optimal pieces. Non-learned recorders still publish counts, sums,
	// and quantiles.
	Learned bool
}

// Recorder measures one latency population as exact per-bucket counts.
// Observe is lock-free and allocation-free: one bucket add, one sum add,
// and a max CAS. Snapshot (periodic, off the hot path) reads the counts
// once and, for learned recorders, runs the exact k-piece v-optimal DP
// over the bucket distribution.
type Recorder struct {
	name, help string
	opts       RecorderOptions

	counts [LatencyDomain]atomic.Int64
	sumUS  atomic.Int64
	maxUS  atomic.Int64

	// snapMu serializes snapshots; snap holds the latest result.
	snapMu    sync.Mutex
	snap      atomic.Pointer[LatencySnapshot]
	snapshots atomic.Int64

	// exemplar is the most recent retained trace attributed to this
	// population (SetExemplar), linking the aggregate series to one
	// concrete request on /metrics.
	exemplar atomic.Pointer[Exemplar]
}

// Exemplar ties a latency series to one retained trace id.
type Exemplar struct {
	TraceID string
	US      int64
}

// SetExemplar records the most recent retained trace observed in this
// recorder's population; it renders as a `<name>_exemplar` companion
// series on /metrics. Safe for concurrent use; last writer wins.
func (r *Recorder) SetExemplar(traceID string, us int64) {
	if traceID == "" {
		return
	}
	r.exemplar.Store(&Exemplar{TraceID: traceID, US: us})
}

// LastExemplar returns the current exemplar, or nil.
func (r *Recorder) LastExemplar() *Exemplar { return r.exemplar.Load() }

// NewRecorder builds an unregistered recorder; most callers use
// Registry.Recorder instead.
func NewRecorder(name, help string, opts RecorderOptions) *Recorder {
	return &Recorder{name: name, help: help, opts: opts}
}

// Name returns the metric name the recorder renders under.
func (r *Recorder) Name() string { return r.name }

// Observe records one latency.
//
//khist:noalloc
func (r *Recorder) Observe(d time.Duration) {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	r.counts[latencyBucket(us)].Add(1)
	r.sumUS.Add(us)
	for {
		old := r.maxUS.Load()
		if us <= old || r.maxUS.CompareAndSwap(old, us) {
			break
		}
	}
}

// Count returns the number of observations.
func (r *Recorder) Count() int64 {
	var n int64
	for b := range r.counts {
		n += r.counts[b].Load()
	}
	return n
}

// SumUS returns the summed observations in microseconds.
func (r *Recorder) SumUS() int64 { return r.sumUS.Load() }

// MaxUS returns the largest observation in microseconds.
func (r *Recorder) MaxUS() int64 { return r.maxUS.Load() }

// LatencyPiece is one piece of a learned latency histogram: a
// microsecond range and the probability mass the learner assigned it.
type LatencyPiece struct {
	LoUS int64   `json:"lo_us"`
	HiUS int64   `json:"hi_us"`
	Mass float64 `json:"mass"`
}

// fixedLE is the fixed cumulative-bucket grid rendered on /metrics
// (Prometheus needs stable le labels across scrapes), in microseconds.
// Every le sits just below a bucket edge (le+1 is a bucket's lower
// edge), so each cumulative series is an exact count.
var fixedLE = []int64{255, 1023, 4095, 16383, 65535, 262143, 1048575, 4194303}

// LatencySnapshot is one read of a recorder's bucket counts: stream
// totals, exact bucket quantiles, a fixed-boundary cumulative histogram,
// and — for learned recorders — the v-optimal k-histogram of the bucket
// distribution.
type LatencySnapshot struct {
	// Count/MeanUS/MaxUS describe the whole stream.
	Count  int64   `json:"count"`
	MeanUS float64 `json:"mean_us"`
	MaxUS  int64   `json:"max_us"`
	// P50US/P90US/P99US are exact nearest-rank quantiles, reported as
	// the lower edge of the bucket holding that rank (value error
	// <= 12.5% from bucketing).
	P50US int64 `json:"p50_us"`
	P90US int64 `json:"p90_us"`
	P99US int64 `json:"p99_us"`
	// CumLE[i] is how many observations were <= fixedLE[i] us.
	CumLE []int64 `json:"-"`
	// K is the requested piece budget; Pieces the optimal histogram
	// (empty below minLearnSamples observations), LearnedK its piece
	// count, and ErrL2 its squared l2 distance to the bucket
	// distribution — the v-optimal error.
	K        int            `json:"k,omitempty"`
	Pieces   []LatencyPiece `json:"pieces,omitempty"`
	LearnedK int            `json:"learned_k,omitempty"`
	ErrL2    float64        `json:"err_l2,omitempty"`
	// Snapshots counts snapshots taken over the recorder's lifetime.
	Snapshots int64 `json:"snapshots"`
}

// Latest returns the most recent snapshot, or nil before the first one.
func (r *Recorder) Latest() *LatencySnapshot { return r.snap.Load() }

// minLearnSamples is the smallest population the DP runs on: below it
// the snapshot still carries counts and quantiles, just no learned
// histogram.
const minLearnSamples = 8

// Snapshot reads the bucket counts once, derives the totals, quantiles,
// and cumulative series from that read, runs the exact k-piece
// v-optimal DP over the bucket distribution (learned recorders with at
// least minLearnSamples observations), stores the result as Latest, and
// returns it. It runs entirely off the request path.
func (r *Recorder) Snapshot(k int) *LatencySnapshot {
	r.snapMu.Lock()
	defer r.snapMu.Unlock()

	counts := make([]int64, LatencyDomain)
	var total int64
	for b := range counts {
		counts[b] = r.counts[b].Load()
		total += counts[b]
	}
	snap := &LatencySnapshot{
		Count:     total,
		MaxUS:     r.maxUS.Load(),
		K:         k,
		Snapshots: r.snapshots.Add(1),
	}
	if total > 0 {
		snap.MeanUS = float64(r.sumUS.Load()) / float64(total)
		snap.P50US = BucketLoUS(rankBucket(counts, total, 0.50))
		snap.P90US = BucketLoUS(rankBucket(counts, total, 0.90))
		snap.P99US = BucketLoUS(rankBucket(counts, total, 0.99))
		snap.CumLE = make([]int64, len(fixedLE))
		b, cum := 0, int64(0)
		for i, le := range fixedLE {
			for end := latencyBucket(le + 1); b < end; b++ {
				cum += counts[b]
			}
			snap.CumLE[i] = cum
		}
	}
	if r.opts.Learned && total >= minLearnSamples && k >= 1 {
		learnOptimal(snap, counts, min(k, LatencyDomain))
	}
	r.snap.Store(snap)
	return snap
}

// rankBucket returns the bucket holding the nearest-rank phi-quantile:
// the ceil(phi * total)-th smallest observation (at least the first).
func rankBucket(counts []int64, total int64, phi float64) int {
	rank := max(int64(math.Ceil(phi*float64(total))), 1)
	var cum int64
	for b, c := range counts {
		if cum += c; cum >= rank {
			return b
		}
	}
	return len(counts) - 1
}

// learnOptimal fills snap's learned histogram with the exact v-optimal
// k-piece tiling of the bucket distribution — the paper's optimum H*,
// computed directly because the whole pmf is at hand.
func learnOptimal(snap *LatencySnapshot, counts []int64, k int) {
	p, err := dist.NewEmpiricalFromCounts(counts).Distribution()
	if err != nil {
		return
	}
	h, err := vopt.OptimalL2(p, k)
	if err != nil {
		return
	}
	bounds := h.Bounds()
	values := h.Values()
	pieces := make([]LatencyPiece, 0, len(values))
	for j := range values {
		pieces = append(pieces, LatencyPiece{
			LoUS: BucketLoUS(bounds[j]),
			HiUS: BucketLoUS(bounds[j+1]),
			Mass: values[j] * float64(bounds[j+1]-bounds[j]),
		})
	}
	snap.Pieces = pieces
	snap.LearnedK = len(pieces)
	snap.ErrL2 = h.L2SqTo(p)
}

// writePrometheus renders the recorder's series: exact totals, the
// latest snapshot's quantiles and fixed-boundary cumulative buckets, and
// (for learned recorders) the learned k-histogram with its boundaries in
// labels and its piece count and learn error as companion series.
func (r *Recorder) writePrometheus(b *strings.Builder) {
	n := r.name
	fmt.Fprintf(b, "# HELP %s_count %s (observations)\n# TYPE %s_count counter\n%s_count %d\n", n, r.help, n, n, r.Count())
	fmt.Fprintf(b, "# TYPE %s_sum_us counter\n%s_sum_us %d\n", n, n, r.SumUS())
	fmt.Fprintf(b, "# TYPE %s_max_us gauge\n%s_max_us %d\n", n, n, r.MaxUS())
	if ex := r.exemplar.Load(); ex != nil {
		fmt.Fprintf(b, "# HELP %s_exemplar latency of the most recent retained trace in this population (id links to /v1/trace/{id})\n", n)
		fmt.Fprintf(b, "# TYPE %s_exemplar gauge\n%s_exemplar{trace_id=%q} %d\n", n, n, ex.TraceID, ex.US)
	}
	snap := r.Latest()
	if snap == nil {
		return
	}
	fmt.Fprintf(b, "# TYPE %s_us gauge\n", n)
	for _, q := range []struct {
		phi string
		v   int64
	}{{"0.5", snap.P50US}, {"0.9", snap.P90US}, {"0.99", snap.P99US}} {
		fmt.Fprintf(b, "%s_us{quantile=%q} %d\n", n, q.phi, q.v)
	}
	if snap.CumLE != nil {
		fmt.Fprintf(b, "# TYPE %s_us_bucket gauge\n", n)
		for i, le := range fixedLE {
			fmt.Fprintf(b, "%s_us_bucket{le=\"%d\"} %d\n", n, le, snap.CumLE[i])
		}
		fmt.Fprintf(b, "%s_us_bucket{le=\"+Inf\"} %d\n", n, snap.Count)
	}
	fmt.Fprintf(b, "# TYPE %s_snapshots_total counter\n%s_snapshots_total %d\n", n, n, snap.Snapshots)
	if len(snap.Pieces) > 0 {
		fmt.Fprintf(b, "# HELP %s_learned_bucket mass per piece of the v-optimal k-histogram of the latency bucket counts\n", n)
		fmt.Fprintf(b, "# TYPE %s_learned_bucket gauge\n", n)
		for i, p := range snap.Pieces {
			fmt.Fprintf(b, "%s_learned_bucket{piece=\"%d\",lo_us=\"%d\",hi_us=\"%d\"} %s\n", n, i, p.LoUS, p.HiUS, formatFloat(p.Mass))
		}
		fmt.Fprintf(b, "# TYPE %s_learned_pieces gauge\n%s_learned_pieces %d\n", n, n, snap.LearnedK)
		fmt.Fprintf(b, "# TYPE %s_learned_err_l2 gauge\n%s_learned_err_l2 %s\n", n, n, formatFloat(snap.ErrL2))
	}
}
