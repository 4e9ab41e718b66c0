package learn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"khist/internal/dist"
)

// withTableCells runs fn with the cost table's cell budget set to cells.
func withTableCells(cells int, fn func()) {
	saved := tableCells
	tableCells = cells
	defer func() { tableCells = saved }()
	fn()
}

// sameResult fails unless got and want agree bit for bit on everything
// the learner reports.
func sameResult(t *testing.T, name string, got, want *Result) {
	t.Helper()
	if got.CandidatesScanned != want.CandidatesScanned || got.Iterations != want.Iterations ||
		got.SamplesUsed != want.SamplesUsed || got.Ell != want.Ell || got.R != want.R || got.M != want.M {
		t.Fatalf("%s: counters differ: got scanned=%d q=%d samples=%d ell=%d r=%d m=%d, want %d %d %d %d %d %d", name,
			got.CandidatesScanned, got.Iterations, got.SamplesUsed, got.Ell, got.R, got.M,
			want.CandidatesScanned, want.Iterations, want.SamplesUsed, want.Ell, want.R, want.M)
	}
	ge, we := got.Priority.Entries(), want.Priority.Entries()
	if len(ge) != len(we) {
		t.Fatalf("%s: %d priority entries, want %d", name, len(ge), len(we))
	}
	for i := range ge {
		if ge[i].Iv != we[i].Iv || ge[i].Pri != we[i].Pri || math.Float64bits(ge[i].V) != math.Float64bits(we[i].V) {
			t.Fatalf("%s: priority entry %d = %+v, want %+v", name, i, ge[i], we[i])
		}
	}
	gb, wb := got.Tiling.Bounds(), want.Tiling.Bounds()
	gv, wv := got.Tiling.Values(), want.Tiling.Values()
	if len(gb) != len(wb) || len(gv) != len(wv) {
		t.Fatalf("%s: tiling bounds %v, want %v", name, gb, wb)
	}
	for i := range gb {
		if gb[i] != wb[i] {
			t.Fatalf("%s: tiling bounds %v, want %v", name, gb, wb)
		}
	}
	for i := range gv {
		if math.Float64bits(gv[i]) != math.Float64bits(wv[i]) {
			t.Fatalf("%s: tiling value %d = %v, want %v", name, i, gv[i], wv[i])
		}
	}
}

// tabulate draws one weight set of size ell and one collision set per
// entry of sizes from d, deterministically from seed.
func tabulate(d *dist.Distribution, seed int64, ell int, sizes []int) (*dist.Empirical, []*dist.Empirical) {
	s := dist.NewSampler(d, rand.New(rand.NewSource(seed)))
	weights := dist.NewEmpiricalFromSampler(s, ell)
	sets := make([]*dist.Empirical, len(sizes))
	for i, m := range sizes {
		sets[i] = dist.NewEmpiricalFromSampler(s, m)
	}
	return weights, sets
}

// tableRows returns the number of rows a whole table has for the run's
// endpoint set, so the suite can size partial memos.
func tableRows(n int, weights *dist.Empirical, fast bool) int {
	if fast {
		return len(candidateEndpoints(weights, n)) - 1
	}
	return n
}

// The table-driven learner must reproduce the per-candidate reference bit
// for bit across seeds, fast and full scans, worker counts, memo sizes
// (whole, partial, none), and odd, even and ragged collision sets.
func TestTableMatchesReference(t *testing.T) {
	const n = 128
	shapes := []struct {
		name  string
		sizes []int
	}{
		{"odd_r", []int{300, 300, 300, 300, 300, 300, 300, 300, 300}},
		{"even_r", []int{300, 300, 300, 300, 300, 300, 300, 300}},
		{"ragged_even_r", []int{120, 410, 57, 300, 233, 96}},
	}
	for seed := int64(1); seed <= 3; seed++ {
		dists := []*dist.Distribution{
			dist.Zipf(n, 1.1),
			dist.RandomKHistogram(n, 5, rand.New(rand.NewSource(seed))),
		}
		for di, d := range dists {
			for _, sh := range shapes {
				weights, sets := tabulate(d, 100*seed+int64(di), 400, sh.sizes)
				for _, fast := range []bool{true, false} {
					opts := Options{K: 4, Eps: 0.1}
					want, err := referenceFromTabulated(n, weights, sets, opts, fast)
					if err != nil {
						t.Fatal(err)
					}
					rows := tableRows(n, weights, fast)
					whole := rows * (rows + 1) / 2
					memos := []struct {
						name  string
						cells int
					}{
						{"whole", tableCells},
						{"partial", whole / 2},
						{"none", 0},
					}
					for _, memo := range memos {
						for _, workers := range []int{1, 2, 4} {
							name := fmt.Sprintf("seed=%d/dist=%d/%s/fast=%t/memo=%s/workers=%d", seed, di, sh.name, fast, memo.name, workers)
							opts.Parallelism = workers
							var got *Result
							withTableCells(memo.cells, func() {
								got, err = FromTabulated(n, weights, sets, opts, fast)
							})
							if err != nil {
								t.Fatal(err)
							}
							sameResult(t, name, got, want)
						}
					}
				}
			}
		}
	}
}

// Ragged FromSamples sets go through the same table: per-set denominators
// and an even r exercise the two-middle average of the row kernel.
func TestFromSamplesRaggedMatchesReference(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(9))
	draw := func(m int) []int {
		out := make([]int, m)
		for i := range out {
			out[i] = int(math.Min(float64(n-1), math.Abs(rng.NormFloat64())*12))
		}
		return out
	}
	weights := draw(200)
	raw := [][]int{draw(90), draw(150), draw(40), draw(220)}
	sets := make([]*dist.Empirical, len(raw))
	for i, s := range raw {
		sets[i] = dist.NewEmpirical(s, n)
	}
	for _, fast := range []bool{true, false} {
		opts := Options{K: 3, Eps: 0.2, Parallelism: 2}
		got, err := FromSamples(n, weights, raw, opts, fast)
		if err != nil {
			t.Fatal(err)
		}
		want, err := referenceFromTabulated(n, dist.NewEmpirical(weights, n), sets, opts, fast)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, fmt.Sprintf("fast=%t", fast), got, want)
	}
}

// The row kernel and the single-interval cost must equal the reference's
// sort-based estimate on every interval, odd and even r.
func TestCostRowMatchesSortedMedian(t *testing.T) {
	const n = 40
	for _, sizes := range [][]int{{50, 80, 65}, {50, 80, 65, 31}, {200}} {
		weights, sets := tabulate(dist.Zipf(n, 1.3), 5, 120, sizes)
		es := tabulatedEstimator(weights, sets)
		rl := &refLearner{es: es, scratch: make([]float64, len(sets))}
		ends := make([]int, n+1)
		for i := range ends {
			ends[i] = i
		}
		row := make([]float64, n)
		for a := 0; a < n; a++ {
			es.costRow(a, ends[a+1:], row)
			for k, b := range ends[a+1:] {
				iv := dist.Interval{Lo: a, Hi: b}
				want := rl.cost(iv)
				if math.Float64bits(row[k]) != math.Float64bits(want) {
					t.Fatalf("r=%d: costRow [%d,%d) = %v, want %v", len(sets), a, b, row[k], want)
				}
				if got := es.cost(iv); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("r=%d: cost [%d,%d) = %v, want %v", len(sets), a, b, got, want)
				}
			}
		}
	}
}

// The memo never holds more than tableCells cells, and fills the longest
// prefix of rows that fits.
func TestCostTableBounded(t *testing.T) {
	weights, sets := tabulate(dist.Uniform(100), 3, 200, []int{100, 100, 100})
	es := tabulatedEstimator(weights, sets)
	ends := make([]int, 101)
	for i := range ends {
		ends[i] = i
	}
	for _, cells := range []int{0, 99, 100, 1000, 5049, 5050, tableBytes / 8} {
		withTableCells(cells, func() {
			tab := newCostTable(es, ends, 2)
			defer tab.release()
			if len(tab.cells) > cells {
				t.Fatalf("cells=%d: table holds %d cells", cells, len(tab.cells))
			}
			if tab.cached < 100 && tab.rowOff(tab.cached+1) <= cells {
				t.Fatalf("cells=%d: %d rows memoized, but %d fit", cells, tab.cached, tab.cached+1)
			}
			if got, want := len(tab.scratch) > 0, tab.cached < 100; got != want {
				t.Fatalf("cells=%d: scratch rows = %t with %d of 100 rows memoized", cells, got, tab.cached)
			}
		})
	}
	// 1448 endpoints have 1447 rows of 1447*1448/2 cells.
	if tableBytes/8 < 1447*1448/2 {
		t.Fatalf("tableBytes %d no longer memoizes a 1448-endpoint table whole", tableBytes)
	}
}

// Concurrent runs on one shared bundle recycle tables through the pool
// and must each still equal the serial result, with whole and partial
// memos.
func TestConcurrentRunsShareBundle(t *testing.T) {
	n, weights, sets := learnColdBundle(t)
	want, err := FromTabulated(n, weights, sets, learnColdOpts, true)
	if err != nil {
		t.Fatal(err)
	}
	rows := tableRows(n, weights, true)
	for _, cells := range []int{tableCells, rows * (rows + 1) / 4} {
		withTableCells(cells, func() {
			const runners = 4
			var wg sync.WaitGroup
			results := make([][]*Result, runners)
			errs := make([]error, runners)
			for g := range runners {
				wg.Add(1)
				go func() {
					defer wg.Done()
					opts := learnColdOpts
					opts.Parallelism = 1 + g%2
					for range 3 {
						res, err := FromTabulated(n, weights, sets, opts, true)
						if err != nil {
							errs[g] = err
							return
						}
						results[g] = append(results[g], res)
					}
				}()
			}
			wg.Wait()
			for g := range runners {
				if errs[g] != nil {
					t.Fatal(errs[g])
				}
				for i, res := range results[g] {
					sameResult(t, fmt.Sprintf("cells=%d/runner=%d/run=%d", cells, g, i), res, want)
				}
			}
		})
	}
}
