//go:build !race

package learn

import "testing"

// TestFromTabulatedAllocs pins the allocation count of a warm fast
// FromTabulated run on a learn_cold-shaped bundle. The cost table comes
// from a pool, so a steady stream of learns allocates no table; the
// ceilings are the counts measured before the table existed (82 serial,
// 154 at Parallelism 2), which the table must not exceed. The race
// detector instruments allocations, so this runs without -race only.
func TestFromTabulatedAllocs(t *testing.T) {
	n, weights, sets := learnColdBundle(t)
	for _, tc := range []struct {
		workers int
		ceiling float64
	}{{1, 82}, {2, 154}} {
		opts := learnColdOpts
		opts.Parallelism = tc.workers
		if _, err := FromTabulated(n, weights, sets, opts, true); err != nil {
			t.Fatal(err)
		}
		avg := testing.AllocsPerRun(20, func() {
			if _, err := FromTabulated(n, weights, sets, opts, true); err != nil {
				t.Fatal(err)
			}
		})
		if avg > tc.ceiling {
			t.Errorf("Parallelism %d: %.0f allocs per run, want at most %.0f", tc.workers, avg, tc.ceiling)
		}
	}
}
