package learn

import (
	"testing"

	"khist/internal/dist"
)

// learnColdOpts is the learn_cold request shape of perfbench: zipf over
// n = 512, k = 4, eps = 0.2, SampleScale 0.02, at most 8000 samples a set.
var learnColdOpts = Options{K: 4, Eps: 0.2, SampleScale: 0.02, MaxSamplesPerSet: 8000}

// learnColdBundle tabulates one learn_cold-shaped sample bundle.
func learnColdBundle(tb testing.TB) (n int, weights *dist.Empirical, sets []*dist.Empirical) {
	n = 512
	ell, r, m, err := learnColdOpts.SetSizes(n)
	if err != nil {
		tb.Fatal(err)
	}
	sizes := make([]int, r)
	for i := range sizes {
		sizes[i] = m
	}
	weights, sets = tabulate(dist.Zipf(n, 1.1), 1, ell, sizes)
	return n, weights, sets
}

// reportPerCandidate adds the ns/candidate metric for cands candidates
// per op.
func reportPerCandidate(b *testing.B, cands int64) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*cands), "ns/candidate")
}

// BenchmarkLearnKernel prices the learner layer by layer on a
// learn_cold-shaped bundle (fast scan, serial):
//
//   - cost: one single-interval estimate;
//   - row: one costRow over the longest row of the endpoint set;
//   - scan_pass: one greedy iteration's scan over a filled table;
//   - from_tabulated: a whole FromTabulated run;
//   - reference: the same run through the per-candidate, sort-based
//     reference learner, which re-estimates every candidate every
//     iteration. CI requires from_tabulated to beat it at least 2x.
func BenchmarkLearnKernel(b *testing.B) {
	n, weights, sets := learnColdBundle(b)
	es := tabulatedEstimator(weights, sets)
	ends := scanEndpoints(weights, n, true)

	b.Run("cost", func(b *testing.B) {
		iv := dist.Interval{Lo: ends[len(ends)/4], Hi: ends[3*len(ends)/4]}
		var sink float64
		for i := 0; i < b.N; i++ {
			sink += es.cost(iv)
		}
		_ = sink
		reportPerCandidate(b, 1)
	})
	b.Run("row", func(b *testing.B) {
		out := make([]float64, len(ends)-1)
		for i := 0; i < b.N; i++ {
			es.costRow(ends[0], ends[1:], out)
		}
		reportPerCandidate(b, int64(len(out)))
	})
	b.Run("scan_pass", func(b *testing.B) {
		tab := newCostTable(es, ends, 1)
		defer tab.release()
		part := newPartition(n, tab)
		left, right := make([]clip, len(ends)), make([]clip, len(ends))
		for i, pos := range ends {
			left[i] = clip{cost: tab.cost(0, pos)}
			right[i] = clip{cost: tab.cost(pos, n), pre: part.total}
		}
		best := make([]scanOutcome, 1)
		b.ResetTimer()
		var sc scanOutcome
		for i := 0; i < b.N; i++ {
			sc = scanCandidates(tab, left, right, best)
		}
		reportPerCandidate(b, sc.scanned)
	})
	b.Run("from_tabulated", func(b *testing.B) {
		var res *Result
		for i := 0; i < b.N; i++ {
			var err error
			if res, err = FromTabulated(n, weights, sets, learnColdOpts, true); err != nil {
				b.Fatal(err)
			}
		}
		reportPerCandidate(b, res.CandidatesScanned)
	})
	b.Run("reference", func(b *testing.B) {
		var res *Result
		for i := 0; i < b.N; i++ {
			var err error
			if res, err = referenceFromTabulated(n, weights, sets, learnColdOpts, true); err != nil {
				b.Fatal(err)
			}
		}
		reportPerCandidate(b, res.CandidatesScanned)
	})
}
