// Command perfbench is the repository benchmark: it drives a fresh
// khist-server child with closed-loop clients, checks every response,
// and prints end-to-end metrics (--trace 0) or per-layer metrics from a
// traced in-process replay (--trace 1). The last line of its output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it through perfbench/run.sh from the repository root, which
// builds the server and this binary first. See perfbench/README.md for
// the workloads, the metrics and the measured run-to-run spread.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"sync"
	"syscall"
	"time"

	"khist/internal/serve"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	workload  string
	seed      int64
	seconds   int
	trace     bool
	serverBin string
}

// setups is how many times an end-to-end run sets the server up;
// setup_s is their median. A traced run sets it up once.
const setups = 3

// spanDir is where traced runs write their spans, inside the checkout's
// build directory.
const spanDir = ".bench_build"

func main() {
	var (
		cfg   config
		trace int
		reps  int
		seed2 int64
	)
	flag.StringVar(&cfg.workload, "workload", wlLearnCold, fmt.Sprintf("workload to run: one of %v", workloads))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's requests are generated from")
	flag.IntVar(&cfg.seconds, "seconds", 25, "target length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics from the live server; 1: per-layer metrics from the traced replay")
	flag.StringVar(&cfg.serverBin, "server-bin", ".bench_build/khist-server", "khist-server binary to benchmark")
	flag.IntVar(&reps, "repeat", 0, "steadiness report: run the workload this many times on consecutive seeds from -seed and summarize")
	flag.Int64Var(&seed2, "seed2", 0, "with -repeat: also run consecutive seeds from this one and compare medians")
	flag.Parse()
	cfg.trace = trace == 1
	if trace != 0 && trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1, got %d", trace))
	}
	if cfg.seconds < 1 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}
	if reps > 0 {
		if err := steadiness(cfg, reps, seed2); err != nil {
			fatal(err)
		}
		return
	}
	res, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// live is the running server, stopped before exit on SIGINT/SIGTERM.
var live struct {
	sync.Mutex
	srv *serverProc
}

func init() {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigs
		live.Lock() // held until exit: no new server can start
		if live.srv != nil {
			live.srv.stop()
		}
		fmt.Fprintln(os.Stderr, "perfbench: stopped by", sig)
		os.Exit(3)
	}()
}

// startLive starts a server and registers it for the signal handler.
func startLive(bin string) (*serverProc, error) {
	live.Lock()
	defer live.Unlock()
	srv, err := startServer(bin)
	live.srv = srv
	return srv, err
}

// stopLive stops the registered server.
func stopLive() {
	live.Lock()
	defer live.Unlock()
	live.srv.stop()
	live.srv = nil
}

// run performs one benchmark run and returns its result line.
func run(cfg config) (*result, error) {
	p, err := generate(cfg.workload, cfg.seed, cfg.seconds)
	if err != nil {
		return nil, err
	}
	printHost(cfg)
	g := newGate(p)
	count := setups
	if cfg.trace {
		count = 1
	}
	var setupS []float64
	var lv *liveRun
	for i := 1; i <= count; i++ {
		t0 := time.Now()
		srv, err := startLive(cfg.serverBin)
		if err != nil {
			return nil, err
		}
		t := newLiveTarget(srv)
		err = warmUp(fmt.Sprintf("setup%d.warm", i), p, g, t)
		setupS = append(setupS, time.Since(t0).Seconds())
		if err == nil && i == count {
			lv, err = measureLive(t, liveLists(p, cfg.trace), g)
		}
		t.close()
		stopLive()
		if err != nil {
			return nil, err
		}
	}
	fmt.Printf("digest %s %s\n", cfg.workload, lv.digest)
	res := &result{Metrics: map[string]metric{}}
	if cfg.trace {
		layers, err := tracedRun(cfg, p, g, lv)
		if err != nil {
			return nil, err
		}
		res.Metrics = layers
	} else {
		sort.Float64s(setupS)
		fmt.Printf("setup_s all %v\n", setupS)
		res.Metrics = lv.endToEnd(g)
		res.Metrics["setup_s"] = metric{median(setupS), "s"}
	}
	for _, v := range g.shown {
		fmt.Println("violation:", v)
	}
	res.Correct = g.violations == 0
	res.Attempted, res.Failed = g.attempted, g.failed
	return res, nil
}

// liveLists is the timed phase of the live run. A traced run needs the
// live server only for its counters and the end-to-end median, so it
// sends the first half of each list, leaving time for the replays.
func liveLists(p *plan, traced bool) [][]request {
	if !traced {
		return p.timed
	}
	half := make([][]request, len(p.timed))
	for c, l := range p.timed {
		half[c] = l[:len(l)/2]
	}
	return half
}

// target is where warm-up and timed phases send requests: the live
// server over HTTP, or a server handler in this process.
type target interface {
	doers() []doer
	stats() (*serve.StatsResponse, error)
}

// warmUp sends the plan's warm-up lists and, when the warm-up is meant
// to fill the tabulation cache, says so if it did not.
func warmUp(name string, p *plan, g *gate, t target) error {
	g.check(runPhase(name, p.warm, t.doers(), nil), false)
	if !p.fillsCache {
		return nil
	}
	st, err := t.stats()
	if err != nil {
		return err
	}
	if !cacheFull(st) {
		fmt.Printf("note: %s left a shard's tabulation cache short of its budget\n", name)
	}
	return nil
}

// cacheFull reports whether every shard holding tabulations has
// evicted at least one.
func cacheFull(st *serve.StatsResponse) bool {
	for _, sh := range st.PerShard {
		if sh.CacheEntries > 0 && sh.CacheEvictions == 0 {
			return false
		}
	}
	return true
}
