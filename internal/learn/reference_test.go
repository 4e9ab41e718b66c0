package learn

import (
	"sort"

	"khist/internal/dist"
	"khist/internal/histogram"
)

// refLearner is the greedy learner as it ran before the cost table: every
// iteration re-estimates every candidate's cost, and each estimate sorts
// the r per-set ratios for their median. It is serial and self-contained
// (its own partition bookkeeping), so the equivalence suite and the
// kernel benchmarks can hold the table-driven learner to it bit for bit.
type refLearner struct {
	es      *estimator
	scratch []float64
}

// cost is c(I) = z_I - y_I^2/|I| with z_I from a full sort.
func (rl *refLearner) cost(iv dist.Interval) float64 {
	if iv.Empty() {
		return 0
	}
	s := rl.scratch
	for i, e := range rl.es.sets {
		denom := float64(e.M()) * float64(e.M()-1) / 2
		if denom == 0 {
			s[i] = 0
			continue
		}
		s[i] = float64(e.SelfCollisions(iv)) / denom
	}
	sort.Float64s(s)
	mid := len(s) / 2
	z := s[mid]
	if len(s)%2 == 0 {
		z = (s[mid-1] + s[mid]) / 2
	}
	y := rl.es.y(iv)
	return z - y*y/float64(iv.Len())
}

// referenceFromTabulated mirrors FromTabulated's contract (q from
// opts.Iterations or the paper's formula) on the reference learner.
func referenceFromTabulated(n int, weights *dist.Empirical, sets []*dist.Empirical, opts Options, fast bool) (*Result, error) {
	es := tabulatedEstimator(weights, sets)
	rl := &refLearner{es: es, scratch: make([]float64, len(sets))}
	q := opts.Iterations
	if q <= 0 {
		q = opts.derive(n).q
	}

	endpoints := scanEndpoints(weights, n, fast)

	bounds := []int{0, n}
	values := []float64{es.value(dist.Whole(n))}
	costs := []float64{rl.cost(dist.Whole(n))}
	var prefix []float64
	rebuild := func() {
		prefix = make([]float64, len(costs)+1)
		for j, c := range costs {
			prefix[j+1] = prefix[j] + c
		}
	}
	rebuild()
	tileIndex := func(pos int) int { return sort.SearchInts(bounds, pos+1) - 1 }

	prio := histogram.NewPriority(n)
	prio.Add(dist.Whole(n), es.value(dist.Whole(n)))

	var scanned int64
	leftIdx := make([]int, n+1)
	leftCost := make([]float64, n+1)
	endIdx := make([]int, n+1)
	endCost := make([]float64, n+1)
	for it := 0; it < q; it++ {
		for _, pos := range endpoints {
			if pos < n {
				ia := tileIndex(pos)
				leftIdx[pos] = ia
				leftCost[pos] = rl.cost(dist.Interval{Lo: bounds[ia], Hi: pos})
			}
			if pos >= 1 {
				ib := tileIndex(pos - 1)
				endIdx[pos] = ib
				endCost[pos] = rl.cost(dist.Interval{Lo: pos, Hi: bounds[ib+1]})
			}
		}

		best := scanOutcome{a: -1, b: -1}
		for _, a := range endpoints {
			if a >= n {
				continue
			}
			for _, b := range endpoints {
				if b <= a {
					continue
				}
				mid := rl.cost(dist.Interval{Lo: a, Hi: b})
				scanned++
				removed := prefix[endIdx[b]+1] - prefix[leftIdx[a]]
				cand := scanOutcome{delta: leftCost[a] + mid + endCost[b] - removed, a: a, b: b}
				if cand.better(best) {
					best = cand
				}
			}
		}
		if best.a < 0 {
			break
		}
		a, b := best.a, best.b
		ia, ib := leftIdx[a], endIdx[b]
		loA, hiB := bounds[ia], bounds[ib+1]

		newBounds := append([]int(nil), bounds[:ia+1]...)
		newValues := append([]float64(nil), values[:ia]...)
		newCosts := append([]float64(nil), costs[:ia]...)
		pri := prio.MaxPri() + 1
		for _, iv := range []dist.Interval{{Lo: loA, Hi: a}, {Lo: a, Hi: b}, {Lo: b, Hi: hiB}} {
			if iv.Empty() {
				continue
			}
			newBounds = append(newBounds, iv.Hi)
			newValues = append(newValues, es.value(iv))
			newCosts = append(newCosts, rl.cost(iv))
		}
		newBounds = append(newBounds, bounds[ib+2:]...)
		newValues = append(newValues, values[ib+1:]...)
		newCosts = append(newCosts, costs[ib+1:]...)
		bounds, values, costs = newBounds, newValues, newCosts
		rebuild()

		// The priority mirror adds J first, then I_L, then I_R.
		prio.AddAt(dist.Interval{Lo: a, Hi: b}, es.value(dist.Interval{Lo: a, Hi: b}), pri)
		if loA < a {
			prio.AddAt(dist.Interval{Lo: loA, Hi: a}, es.value(dist.Interval{Lo: loA, Hi: a}), pri)
		}
		if hiB > b {
			prio.AddAt(dist.Interval{Lo: b, Hi: hiB}, es.value(dist.Interval{Lo: b, Hi: hiB}), pri)
		}
	}

	tiling, err := histogram.NewTiling(bounds, values)
	if err != nil {
		return nil, err
	}
	return &Result{
		Priority:          prio,
		Tiling:            tiling.Canonical(),
		SamplesUsed:       es.samplesUsed(),
		Iterations:        q,
		CandidatesScanned: scanned,
		Ell:               weights.M(),
		R:                 len(sets),
		M:                 setSize(sets),
	}, nil
}
