package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"khist/internal/serve"
)

// minBeyond is the number of samples that must lie beyond a reported
// percentile: a percentile resting on fewer is mostly noise.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs. It
// refuses when fewer than minBeyond samples lie beyond the quantile.
// xs is sorted in place.
func percentile(xs []float64, q float64) (float64, error) {
	beyond := math.Floor(float64(len(xs))*(1-q) + 1e-9)
	if beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %.0f beyond it, need %d", 100*q, len(xs), beyond, minBeyond)
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q*float64(len(xs)) - 1e-9))
	return xs[rank-1], nil
}

// median is the middle value of xs (the mean of the two middle values
// for an even count), or 0 for an empty sample. xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	h := len(xs) / 2
	if len(xs)%2 == 0 {
		return (xs[h-1] + xs[h]) / 2
	}
	return xs[h]
}

// clockTicks is the kernel's USER_HZ, the unit of the utime and stime
// fields of /proc/<pid>/stat; it is 100 on every Linux architecture Go
// supports.
const clockTicks = 100

// procCPU returns a process's user+system CPU time in seconds from the
// contents of /proc/<pid>/stat. The command name (field 2) may contain
// spaces and parentheses, so fields are counted after its last ')'.
func procCPU(stat []byte) (float64, error) {
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field")
	}
	f := strings.Fields(string(stat[i+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command", len(f))
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("proc stat: utime %q stime %q", f[11], f[12])
	}
	return float64(utime+stime) / clockTicks, nil
}

// procPeakRSS returns VmHWM, the peak resident set, in MiB from the
// contents of /proc/<pid>/status.
func procPeakRSS(status []byte) (float64, error) {
	sc := bufio.NewScanner(bytes.NewReader(status))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(line[len("VmHWM:"):])
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed %q", line)
		}
		kb, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc status: %q: %w", line, err)
		}
		return float64(kb) / 1024, nil
	}
	return 0, fmt.Errorf("proc status: no VmHWM line")
}

func readProc(pid int, file string) ([]byte, error) {
	return os.ReadFile(fmt.Sprintf("/proc/%d/%s", pid, file))
}

// counters are the /v1/stats totals the per-layer metrics difference
// over the timed phase.
type counters struct {
	requests, shed, tenantShed             int64
	bundleHits, bundleMisses, coalesced    int64
	bundleEvictions, bundleEvictedBytes    int64
	rcacheHits, rcacheMisses, rcacheInvals int64
	ingestBatches, sketchBytes             int64
}

func countersOf(s *serve.StatsResponse) counters {
	c := counters{
		requests:     s.Requests,
		shed:         s.Shed,
		bundleHits:   s.CacheHits,
		bundleMisses: s.CacheMisses,
		coalesced:    s.Coalesced,
	}
	for _, sh := range s.PerShard {
		c.bundleEvictions += sh.CacheEvictions
		c.bundleEvictedBytes += sh.CacheEvictedBytes
	}
	for _, t := range s.Tenants {
		c.tenantShed += t.ShedRate + t.ShedConcurrency
	}
	if rc := s.ResponseCache; rc != nil {
		c.rcacheHits, c.rcacheMisses, c.rcacheInvals = rc.Hits, rc.Misses, rc.Invalidations
	}
	if st := s.Streams; st != nil {
		c.ingestBatches, c.sketchBytes = st.IngestBatches, st.SketchBytes
	}
	return c
}

// sub returns the counter increase from before to c. sketchBytes is a
// level, not a counter, so it keeps c's value.
func (c counters) sub(before counters) counters {
	return counters{
		requests:           c.requests - before.requests,
		shed:               c.shed - before.shed,
		tenantShed:         c.tenantShed - before.tenantShed,
		bundleHits:         c.bundleHits - before.bundleHits,
		bundleMisses:       c.bundleMisses - before.bundleMisses,
		coalesced:          c.coalesced - before.coalesced,
		bundleEvictions:    c.bundleEvictions - before.bundleEvictions,
		bundleEvictedBytes: c.bundleEvictedBytes - before.bundleEvictedBytes,
		rcacheHits:         c.rcacheHits - before.rcacheHits,
		rcacheMisses:       c.rcacheMisses - before.rcacheMisses,
		rcacheInvals:       c.rcacheInvals - before.rcacheInvals,
		ingestBatches:      c.ingestBatches - before.ingestBatches,
		sketchBytes:        c.sketchBytes,
	}
}

// ratio is a/b, or 0 when b is 0 (the layer saw no traffic).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives the server-counter per-layer metrics from a
// timed-phase counter difference; sent is the requests the clients
// sent in the phase.
func (d counters) layerMetrics(sent int) map[string]float64 {
	lookups := d.bundleHits + d.bundleMisses + d.coalesced
	return map[string]float64{
		"serve.rcache_hit_ratio":                ratio(float64(d.rcacheHits), float64(d.rcacheHits+d.rcacheMisses)),
		"serve.bundle_hit_ratio":                ratio(float64(d.bundleHits), float64(lookups)),
		"serve.bundle_evicted_mb_per_kq":        ratio(float64(d.bundleEvictedBytes)/1e6, float64(sent)/1000),
		"serve.rcache_invalidations_per_ingest": ratio(float64(d.rcacheInvals), float64(d.ingestBatches)),
		"serve.shed_ratio":                      ratio(float64(d.shed+d.tenantShed), float64(sent)),
		"stream.sketch_bytes":                   float64(d.sketchBytes),
	}
}
