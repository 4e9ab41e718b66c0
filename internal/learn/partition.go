package learn

import (
	"sort"

	"khist/internal/dist"
)

// partition maintains the tiling of [0, n) induced by the priority
// histogram built so far: sorted tile boundaries, the per-element value of
// each tile, each tile's estimated cost c(I) = z_I - y_I^2/|I|, and prefix
// sums of the costs so that "remove every tile intersecting [a, b)" is an
// O(1) range subtraction during the candidate scan (see scanCandidates).
type partition struct {
	n      int
	bounds []int     // 0 = bounds[0] < ... < bounds[t] = n
	values []float64 // per-element value of tile j, len t
	costs  []float64 // cost of tile j, len t
	prefix []float64 // prefix[j] = sum of costs[0:j], len t+1
	total  float64   // prefix[t]
}

// newPartition starts from the single tile [0, n) carrying the estimated
// mean value. (Algorithm 1 starts from the empty histogram, which is the
// all-zero function; seeding with the best-fit constant is the same
// partition with a value choice that can only reduce the final error and
// leaves the greedy objective, which depends only on boundaries,
// untouched.)
func newPartition(n int, tab *costTable) *partition {
	p := &partition{
		n:      n,
		bounds: []int{0, n},
		values: []float64{tab.es.value(dist.Whole(n))},
		costs:  []float64{tab.cost(0, n)},
	}
	p.rebuildPrefix()
	return p
}

func (p *partition) rebuildPrefix() {
	if cap(p.prefix) < len(p.costs)+1 {
		p.prefix = make([]float64, len(p.costs)+1)
	}
	p.prefix = p.prefix[:len(p.costs)+1]
	p.prefix[0] = 0
	for j, c := range p.costs {
		p.prefix[j+1] = p.prefix[j] + c
	}
	p.total = p.prefix[len(p.costs)]
}

// tiles returns the number of tiles.
func (p *partition) tiles() int { return len(p.values) }

// tileIndex returns the index of the tile containing domain position pos,
// for pos in [0, n).
func (p *partition) tileIndex(pos int) int {
	// Largest j with bounds[j] <= pos.
	return sort.SearchInts(p.bounds, pos+1) - 1
}

// commit replaces the tiles intersecting [a, b) with (up to) three new
// tiles: the left clip, [a, b) itself, and the right clip, assigning each
// a freshly estimated value and cost, exactly as Algorithm 1 re-adds the
// recomputed neighbour intervals I_L and I_R alongside J. Every new
// tile's bounds are endpoints, so its cost comes from the table.
func (p *partition) commit(a, b int, tab *costTable) {
	ia := p.tileIndex(a)
	ib := p.tileIndex(b - 1)
	loA := p.bounds[ia]
	hiB := p.bounds[ib+1]

	newBounds := make([]int, 0, len(p.bounds)+2)
	newValues := make([]float64, 0, len(p.values)+2)
	newCosts := make([]float64, 0, len(p.costs)+2)

	// Tiles strictly before ia.
	newBounds = append(newBounds, p.bounds[:ia+1]...)
	newValues = append(newValues, p.values[:ia]...)
	newCosts = append(newCosts, p.costs[:ia]...)

	appendTile := func(iv dist.Interval) {
		if iv.Empty() {
			return
		}
		newBounds = append(newBounds, iv.Hi)
		newValues = append(newValues, tab.es.value(iv))
		newCosts = append(newCosts, tab.cost(iv.Lo, iv.Hi))
	}
	appendTile(dist.Interval{Lo: loA, Hi: a}) // left clip I_L
	appendTile(dist.Interval{Lo: a, Hi: b})   // the committed interval J
	appendTile(dist.Interval{Lo: b, Hi: hiB}) // right clip I_R

	// Tiles strictly after ib.
	newBounds = append(newBounds, p.bounds[ib+2:]...)
	newValues = append(newValues, p.values[ib+1:]...)
	newCosts = append(newCosts, p.costs[ib+1:]...)

	p.bounds = newBounds
	p.values = newValues
	p.costs = newCosts
	p.rebuildPrefix()
}
