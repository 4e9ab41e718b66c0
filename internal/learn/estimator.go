package learn

import (
	"khist/internal/collision"
	"khist/internal/dist"
)

// estimator bundles the two sample-based statistics of Algorithm 1:
//
//	y(I) = |S_I| / ell            (Step 2; estimates the weight p(I))
//	z(I) = median_j coll(S^j_I) / C(m, 2)
//	                              (Step 4; estimates sum_{i in I} p_i^2)
//
// Both read per-set prefix sums built by dist.Empirical. The estimator
// is read-only after construction, so any number of goroutines may call
// its methods concurrently.
type estimator struct {
	weights *dist.Empirical   // the ell weight samples S
	sets    []*dist.Empirical // the r collision sample sets S^1..S^r
	coll    []collStat        // coll[j] is costRow's view of sets[j]
	scale   float64           // divisor costRow applies to the median key
}

// collStat is what costRow reads of one collision set S^j. Its sort key
// for [a, b) is coll(S^j_[a,b)) / div, and the median key divided by the
// estimator's scale is z. When every set has the same size m (every
// sampled run) the keys are the raw counts (div = 1, scale = C(m, 2)):
// division by a positive constant preserves order, so only the median
// is divided. Ragged sets take div = C(|S^j|, 2) and scale = 1. Dividing
// by 1 is exact, so both forms give z bit for bit.
type collStat struct {
	cum []int64 // S^j's CumCollisions
	div float64
}

// newEstimator draws all sample sets for one learner run through the
// batched sample plane: the weight set (size ell) and the r collision
// sets (size m each) are drawn as r+1 independent tasks via
// collision.CollectSetsSized, so a forkable sampler fills them
// concurrently while non-forkable oracles fall back to sequential draws.
// Either way the sets are identical for every worker count.
func newEstimator(s dist.Sampler, p params, workers int, seed uint64) *estimator {
	sizes := make([]int, p.r+1)
	sizes[0] = p.ell
	for i := 1; i <= p.r; i++ {
		sizes[i] = p.m
	}
	all := collision.CollectSetsSized(s, sizes, workers, seed)
	return tabulatedEstimator(all[0], all[1:])
}

// tabulatedEstimator wraps already-tabulated sample sets.
func tabulatedEstimator(weights *dist.Empirical, sets []*dist.Empirical) *estimator {
	es := &estimator{
		weights: weights,
		sets:    sets,
		coll:    make([]collStat, len(sets)),
		scale:   1,
	}
	uniform := true
	for j, e := range sets {
		// A set of fewer than two samples has no pairs: its counts stay
		// 0, so its key is never divided, matching the ratio-0 convention.
		es.coll[j] = collStat{cum: e.CumCollisions(), div: pairs(e.M())}
		uniform = uniform && e.M() == sets[0].M()
	}
	if d := pairs(sets[0].M()); uniform && d > 0 {
		es.scale = d
		for j := range es.coll {
			es.coll[j].div = 1
		}
	}
	return es
}

// pairs returns C(m, 2) as a float64.
func pairs(m int) float64 { return float64(m) * float64(m-1) / 2 }

// samplesUsed returns the total number of draws the estimator consumed.
func (es *estimator) samplesUsed() int64 {
	total := int64(es.weights.M())
	for _, e := range es.sets {
		total += int64(e.M())
	}
	return total
}

// y returns the weight estimate y_I.
func (es *estimator) y(iv dist.Interval) float64 {
	return es.weights.FractionIn(iv)
}

// cost returns the interval's contribution to the greedy objective:
// c(I) = z_I - y_I^2/|I|, the sample estimate of
// sum_{i in I} p_i^2 - p(I)^2/|I|, which is the SSE of the best constant
// on I. Empty intervals cost 0. It is costRow with a one-cell row.
func (es *estimator) cost(iv dist.Interval) float64 {
	if iv.Empty() {
		return 0
	}
	var out [1]float64
	es.costRow(iv.Lo, []int{iv.Hi}, out[:])
	return out[0]
}

// rankEntry is one collision set's slot in costRow's sorted order.
type rankEntry struct {
	key  float64 // sort key of S^j over [a, b) for the current b
	coll int64   // coll[j].cum[b] that key was computed from
	base int64   // coll[j].cum[a]
	set  int     // j
}

// stackSets is the largest r whose rank entries costRow keeps on the
// stack; the paper's r = ceil(ln(6 n^2)) stays below it for n < 2^25.
const stackSets = 32

// costRow writes out[k] = c([a, ends[k])) for the strictly increasing
// ends, all greater than a. It is the learner's only median.
//
// Each set's collision count never decreases as the right end grows, so
// the kernel carries the sets' sorted order from one cell to the next.
// It walks the order right to left; the suffix already walked is sorted,
// so a set whose count moved only has to bubble right into it, and a set
// whose count did not move is already in place. The median (the mean of
// the two middle values when r is even) is then read in place. The
// sorted values are exactly those a full sort would produce, so every
// cell equals the per-interval z_I - y_I^2/|I| bit for bit.
func (es *estimator) costRow(a int, ends []int, out []float64) {
	var buf [stackSets]rankEntry
	order := buf[:0]
	if len(es.sets) > stackSets {
		order = make([]rankEntry, 0, len(es.sets))
	}
	for j, st := range es.coll {
		order = append(order, rankEntry{coll: st.cum[a], base: st.cum[a], set: j})
	}
	hits := es.weights.CumHits()
	hitBase := hits[a]
	ell := float64(es.weights.M())
	mid := len(order) / 2
	even := len(order)%2 == 0
	out = out[:len(ends)]
	for k, b := range ends {
		for t := len(order) - 1; t >= 0; t-- {
			st := &es.coll[order[t].set]
			c := st.cum[b]
			if c == order[t].coll {
				continue
			}
			e := order[t]
			e.coll = c
			e.key = float64(c - e.base)
			if st.div != 1 {
				e.key /= st.div
			}
			u := t
			for ; u+1 < len(order) && order[u+1].key < e.key; u++ {
				order[u] = order[u+1]
			}
			order[u] = e
		}
		z := order[mid].key / es.scale
		if even {
			z = (order[mid-1].key/es.scale + z) / 2
		}
		y := float64(hits[b]-hitBase) / ell
		out[k] = z - y*y/float64(b-a)
	}
}

// value returns the per-element histogram value the learner assigns to a
// committed interval: y_I / |I| (the paper's y_I is the interval's total
// weight; the histogram stores the per-element constant).
func (es *estimator) value(iv dist.Interval) float64 {
	if iv.Empty() {
		return 0
	}
	v := es.y(iv) / float64(iv.Len())
	if v < 0 {
		return 0
	}
	return v
}
