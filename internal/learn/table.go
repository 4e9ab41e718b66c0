package learn

import (
	"sort"
	"sync"

	"khist/internal/dist"
	"khist/internal/par"
)

// tableBytes bounds the memory of one learner run's cost table: about
// 8 MiB, so an endpoint set of up to ~1450 positions is memoized whole.
const tableBytes = 8 << 20

// tableCells is the table's capacity in cells. It is tableBytes/8 in
// every build; tests lower it to force partial and empty memos.
var tableCells = tableBytes / 8

// tablePool recycles table storage across learner runs, so a steady
// stream of learns does not allocate (and zero) a fresh table each.
var tablePool sync.Pool // of *[]float64

// costTable memoizes the partition-independent interval costs
// c([ends[i], ends[j])) of one learner run. They depend only on the
// tabulated sample sets, so the greedy's q scans read them instead of
// re-estimating every candidate in every iteration.
//
// Row i holds the cells j > i, contiguous in one flat slice; the last
// endpoint (n) starts no row. The longest prefix of rows that fits in
// tableCells is filled once; any remaining row is refilled into a
// per-worker scratch row on every scan, with the same kernel, so a cell
// has the same value whether it was memoized or not.
type costTable struct {
	es      *estimator
	ends    []int       // candidate endpoints, strictly increasing, last = n
	cells   []float64   // rows [0, cached), row i at rowOff(i)
	cached  int         // number of memoized rows
	scratch [][]float64 // per-worker row for the rows past cached
	buf     *[]float64  // pooled storage behind cells
}

// newCostTable fills the memoized rows, striped over workers.
func newCostTable(es *estimator, ends []int, workers int) *costTable {
	t := &costTable{es: es, ends: ends}
	rows := len(ends) - 1
	for t.cached < rows && t.rowOff(t.cached+1) <= tableCells {
		t.cached++
	}
	if need := t.rowOff(t.cached); need > 0 {
		p, _ := tablePool.Get().(*[]float64)
		if p == nil || cap(*p) < need {
			s := make([]float64, need)
			p = &s
		}
		t.buf = p
		t.cells = (*p)[:need]
	}
	if t.cached < rows {
		t.scratch = make([][]float64, workers)
		for w := range t.scratch {
			t.scratch[w] = make([]float64, rows-t.cached)
		}
	}
	par.ForWorker(workers, t.cached, func(_, i int) {
		es.costRow(ends[i], ends[i+1:], t.cells[t.rowOff(i):t.rowOff(i+1)])
	})
	return t
}

// release returns the table's storage to the pool. The table must not
// be used afterwards.
func (t *costTable) release() {
	if t.buf != nil {
		tablePool.Put(t.buf)
		t.buf, t.cells = nil, nil
	}
}

// rowOff is the offset of row i: the rows before it hold
// (E-1) + (E-2) + ... + (E-i) cells for E = len(ends).
func (t *costTable) rowOff(i int) int {
	return i*(len(t.ends)-1) - i*(i-1)/2
}

// row returns c([ends[i], ends[j])) for j = i+1, ..., len(ends)-1, from
// the memo or refilled into worker w's scratch row.
func (t *costTable) row(w, i int) []float64 {
	if i < t.cached {
		return t.cells[t.rowOff(i):t.rowOff(i+1)]
	}
	out := t.scratch[w][:len(t.ends)-1-i]
	t.es.costRow(t.ends[i], t.ends[i+1:], out)
	return out
}

// cost returns c([lo, hi)) for endpoints lo <= hi. Tile bounds are
// always endpoints, so clip and commit costs come from here too.
func (t *costTable) cost(lo, hi int) float64 {
	if lo >= hi {
		return 0
	}
	i := sort.SearchInts(t.ends, lo)
	if i < t.cached {
		j := sort.SearchInts(t.ends[i+1:], hi)
		return t.cells[t.rowOff(i)+j]
	}
	return t.es.cost(dist.Interval{Lo: lo, Hi: hi})
}
