package learn

import "khist/internal/par"

// scanOutcome is the winner of one candidate scan.
type scanOutcome struct {
	delta   float64
	a, b    int
	scanned int64
}

// better reports whether candidate x beats y under the deterministic
// ordering: strictly smaller delta, ties broken toward the
// lexicographically smaller (a, b). This makes the parallel scan's result
// identical to the serial scan's (which keeps the first minimum in
// endpoint order).
func (x scanOutcome) better(y scanOutcome) bool {
	if y.a < 0 {
		return x.a >= 0
	}
	if x.a < 0 {
		return false
	}
	if x.delta != y.delta {
		return x.delta < y.delta
	}
	if x.a != y.a {
		return x.a < y.a
	}
	return x.b < y.b
}

// clip is one endpoint's view of the current partition: the cost of the
// clip it cuts from its tile, and the cost prefix sum at the tile edge
// beyond the clip.
type clip struct {
	cost float64
	pre  float64
}

// scanCandidates evaluates every candidate interval [a, b) with a, b drawn
// from the endpoint set and returns the cost-minimizing one. Committing
// [ends[i], ends[j]) removes every tile it intersects and adds the left
// clip, the candidate and the right clip, so its cost change is
//
//	left[i].cost + c([ends[i], ends[j])) + right[j].cost - (right[j].pre - left[i].pre)
//
// where left[i].pre and right[j].pre are the cost prefix sums at the first
// and past the last intersected tile. Rows are striped over len(best)
// workers, each keeping its own winner in best[w]; the winners are merged
// under the total order of better, so the outcome is deterministic
// regardless of worker count.
func scanCandidates(t *costTable, left, right []clip, best []scanOutcome) scanOutcome {
	for w := range best {
		best[w] = scanOutcome{a: -1, b: -1}
	}
	rows := len(t.ends) - 1
	// Serial runs call scanRow directly: the closure par.ForWorker takes
	// would cost one allocation per iteration (see TestFromTabulatedAllocs).
	if len(best) == 1 {
		for i := 0; i < rows; i++ {
			scanRow(t, 0, i, left, right, &best[0])
		}
	} else {
		par.ForWorker(len(best), rows, func(w, i int) {
			scanRow(t, w, i, left, right, &best[w])
		})
	}
	out := scanOutcome{a: -1, b: -1}
	var total int64
	for _, r := range best {
		total += r.scanned
		if r.better(out) {
			out = r
		}
	}
	out.scanned = total
	return out
}

// scanRow folds row i's candidates [ends[i], ends[j]) into worker w's
// winner. Within the row it keeps the first minimum, so ties still go to
// the lexicographically smallest interval.
func scanRow(t *costTable, w, i int, left, right []clip, best *scanOutcome) {
	row := t.row(w, i)
	rc := right[i+1:][:len(row)]
	lc, lp := left[i].cost, left[i].pre
	k, d := 0, lc+row[0]+rc[0].cost-(rc[0].pre-lp)
	for x := 1; x < len(row); x++ {
		if v := lc + row[x] + rc[x].cost - (rc[x].pre - lp); v < d {
			k, d = x, v
		}
	}
	best.scanned += int64(len(row))
	if cand := (scanOutcome{delta: d, a: t.ends[i], b: t.ends[i+1+k]}); cand.better(*best) {
		cand.scanned = best.scanned
		*best = cand
	}
}
