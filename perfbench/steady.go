package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strconv"
)

// benchSpec is the part of BENCHMARK.json the steadiness report reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles returns the first quartile, median and third quartile of
// xs exactly as Python's statistics.quantiles(xs, n=4) computes them
// (its default "exclusive" method), which the acceptance check uses.
// It needs at least 2 values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	const n = 4
	ld, m := len(s), len(s)+1
	q := make([]float64, n-1)
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), ld-1)
		delta := float64(i*m - j*n)
		q[i-1] = (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return q[0], q[1], q[2]
}

// steadiness runs the workload reps times on consecutive seeds (and
// again from seed2 when set), each as a separate end-to-end run of this
// binary, and reports every end-to-end metric's median, quartiles and
// spread (IQR over median) against its bound from BENCHMARK.json.
func steadiness(cfg config, reps int, seed2 int64) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("steadiness report reads the bounds from BENCHMARK.json in the working directory: %w", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	first, firstIDs, err := runSeeds(cfg, cfg.seed, reps)
	if err != nil {
		return err
	}
	fmt.Printf("steadiness %s: %d runs, seeds %d..%d\n", cfg.workload, reps, cfg.seed, cfg.seed+int64(reps)-1)
	fmt.Printf("%-24s %12s %12s %12s %8s %6s\n", "metric", "q1", "median", "q3", "spread", "bound")
	var second map[string][]float64
	bad := 0
	if seed2 != 0 {
		var secondIDs []string
		if second, secondIDs, err = runSeeds(cfg, seed2, reps); err != nil {
			return err
		}
		if seed2 == cfg.seed {
			// The same seeds again: every run must reproduce its twin's
			// response digest and learn error exactly.
			same := slices.Equal(firstIDs, secondIDs)
			if !same {
				bad++
			}
			fmt.Printf("second set repeats seeds %d..%d: digests and learn_err_l2 identical per seed: %v\n", seed2, seed2+int64(reps)-1, same)
		}
	}
	for _, m := range spec.EndToEnd {
		xs := first[m.Name]
		if len(xs) < 2 {
			return fmt.Errorf("metric %s: %d values", m.Name, len(xs))
		}
		q1, q2, q3 := quartiles(xs)
		spread := ratio(q3-q1, q2)
		flag := ""
		if spread > m.Bound {
			flag = "  SPREAD EXCEEDS BOUND"
			bad++
		} else if spread > m.Bound/3 {
			flag = "  spread above bound/3"
		}
		fmt.Printf("%-24s %12.5g %12.5g %12.5g %8.4f %6.3f%s\n", m.Name, q1, q2, q3, spread, m.Bound, flag)
		if second != nil {
			_, r2, _ := quartiles(second[m.Name])
			worse := (r2 - q2) / q2
			if m.Better == "higher" {
				worse = -worse
			}
			flag = ""
			if worse > m.Bound {
				flag = "  SECOND SEED SET WORSE THAN BOUND"
				bad++
			}
			fmt.Printf("%-24s second seeds from %d: median %.5g (%+.4f worse)%s\n", "", seed2, r2, worse, flag)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metric(s) outside their bounds", bad)
	}
	return nil
}

// runSeeds runs one end-to-end run per seed and collects each metric's
// values, and per run its response digest and exact learn error.
func runSeeds(cfg config, from int64, reps int) (map[string][]float64, []string, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	vals := map[string][]float64{}
	var ids []string
	for i := 0; i < reps; i++ {
		seed := from + int64(i)
		cmd := exec.Command(self, "-workload", cfg.workload, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.Itoa(cfg.seconds), "-trace", "0", "-server-bin", cfg.serverBin)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, nil, fmt.Errorf("seed %d: %w\n%s", seed, err, out)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return nil, nil, fmt.Errorf("seed %d: result line: %w", seed, err)
		}
		if !res.Correct || res.Failed > 0 {
			return nil, nil, fmt.Errorf("seed %d: correct=%v failed=%d", seed, res.Correct, res.Failed)
		}
		for name, m := range res.Metrics {
			vals[name] = append(vals[name], m.Value)
		}
		id := fmt.Sprintf("learn_err_l2=%v", res.Metrics["learn_err_l2"].Value)
		for _, l := range lines {
			if bytes.HasPrefix(l, []byte("digest ")) {
				id = string(l) + " " + id
			}
		}
		ids = append(ids, id)
		fmt.Printf("seed %d: %s %s\n", seed, id, lines[len(lines)-1])
	}
	return vals, ids, nil
}
