package main

import (
	"fmt"

	"khist/internal/serve"
)

// liveTarget is a running khist-server with one keep-alive client per
// closed-loop client.
type liveTarget struct {
	srv *serverProc
	cl  []*httpClient
}

func newLiveTarget(srv *serverProc) *liveTarget {
	t := &liveTarget{srv: srv}
	for c := 0; c < clients; c++ {
		t.cl = append(t.cl, newHTTPClient(srv.base))
	}
	return t
}

func (t *liveTarget) doers() []doer {
	ds := make([]doer, len(t.cl))
	for i, c := range t.cl {
		ds[i] = c
	}
	return ds
}

func (t *liveTarget) stats() (*serve.StatsResponse, error) { return t.srv.stats() }

func (t *liveTarget) close() {
	for _, c := range t.cl {
		c.close()
	}
}

// liveRun is the measured timed phase of a live run.
type liveRun struct {
	ph     *phase
	cpuS   float64 // server user+system CPU seconds over the phase
	rssMB  float64 // server peak resident set at the end of the phase
	delta  counters
	digest string
}

// measureLive runs the timed lists against the server, reading its CPU
// time and its /v1/stats counters on both sides of the phase.
func measureLive(t *liveTarget, timed [][]request, g *gate) (*liveRun, error) {
	pid := t.srv.pid()
	st0, err := t.stats()
	if err != nil {
		return nil, err
	}
	cpu0, err := cpuOf(pid)
	if err != nil {
		return nil, err
	}
	ph := runPhase("timed", timed, t.doers(), nil)
	cpu1, err := cpuOf(pid)
	if err != nil {
		return nil, err
	}
	st1, err := t.stats()
	if err != nil {
		return nil, err
	}
	status, err := readProc(pid, "status")
	if err != nil {
		return nil, err
	}
	rss, err := procPeakRSS(status)
	if err != nil {
		return nil, err
	}
	g.check(ph, true)
	return &liveRun{
		ph:     ph,
		cpuS:   cpu1 - cpu0,
		rssMB:  rss,
		delta:  countersOf(st1).sub(countersOf(st0)),
		digest: digest(ph),
	}, nil
}

func cpuOf(pid int) (float64, error) {
	stat, err := readProc(pid, "stat")
	if err != nil {
		return 0, err
	}
	return procCPU(stat)
}

// endToEnd derives the end-to-end metrics of the whole timed phase:
// requests over its wall time, the p50 and p99 over every timed
// request, and the server's CPU time over the phase per request.
func (lv *liveRun) endToEnd(g *gate) map[string]metric {
	n := float64(lv.ph.sent())
	lat := lv.ph.latenciesMS()
	p99, err := percentile(lat, 0.99)
	if err != nil {
		// The timed request counts are sized so this cannot happen; a
		// refused percentile is a benchmark bug, not a result.
		panic(fmt.Sprintf("perfbench: latency p99: %v", err))
	}
	fmt.Printf("timed requests=%d wall_s=%.3f server_cpu_s=%.2f\n", lv.ph.sent(), lv.ph.wall.Seconds(), lv.cpuS)
	return map[string]metric{
		"throughput_qps":          {n / lv.ph.wall.Seconds(), "1/s"},
		"latency_p50_ms":          {median(lat), "ms"},
		"latency_p99_ms":          {p99, "ms"},
		"server_cpu_ms_per_query": {1000 * lv.cpuS / n, "ms"},
		"server_peak_rss_mb":      {lv.rssMB, "MiB"},
		"learn_err_l2":            {g.meanLearnErr(), "l2"},
	}
}
