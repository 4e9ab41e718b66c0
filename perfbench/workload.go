package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"khist/internal/cli"
	"khist/internal/dist"
	"khist/internal/par"
	"khist/internal/serve"
)

// Workload names, as BENCHMARK.json lists them.
const (
	wlLearnCold = "learn_cold"
	wlHotRepeat = "hot_repeat"
	wlIngest    = "ingest_relearn"
)

var workloads = []string{wlLearnCold, wlHotRepeat, wlIngest}

// clients is the number of closed-loop clients, one keep-alive
// connection each. It matches the CPU count of the host the bounds were
// measured on, so the server is saturated without building a queue.
const clients = 2

// Endpoint ops of generated requests.
const (
	opLearn  = "learn"
	opTestL2 = "test_l2"
	opTestL1 = "test_l1"
	opIngest = "ingest"
)

var opPath = map[string]string{
	opLearn:  "/v1/learn",
	opTestL2: "/v1/test/l2",
	opTestL1: "/v1/test/l1",
	opIngest: "/v1/ingest",
}

// request is one generated HTTP request plus what the correctness gate
// and the traced replay need to know about it.
type request struct {
	op     string
	body   []byte
	binary bool // sent as application/x-khist-bin, answered the same way
	// qid names the expected answer: every response to one qid must be
	// byte-identical. Stream reads get a new qid after each ingest.
	qid int
	n   int
	// fresh marks the first stream read after an ingest, which must
	// never be answered from the response cache.
	fresh bool

	learn  *serve.LearnRequest
	test   *serve.TestRequest
	ingest *serve.IngestRequest
	// version and count are the ingest acknowledgement the stream's
	// batch history implies.
	version uint64
	count   int64
}

// plan is a workload's full request list, generated from the seed
// before any server starts. warm is sent untimed, timed is the measured
// closed loop; both are per client.
type plan struct {
	workload string
	warm     [][]request
	timed    [][]request
	// fillsCache marks a warm-up meant to leave every shard's
	// tabulation cache full and evicting.
	fillsCache bool
	// truth maps each learn qid to the distribution the answer
	// approximates, for learn_err_l2.
	truth map[int][]float64
}

// Per-workload calibration: the closed-loop throughput each workload
// reached on the 2-CPU host the bounds were measured on, used only to
// size the timed phase to about --seconds, and the floor on timed
// requests that keeps every reported percentile supported by at least
// ten samples beyond it.
var (
	qpsEstimate = map[string]float64{wlLearnCold: 75, wlHotRepeat: 17000, wlIngest: 580}
	minTimed    = map[string]int{wlLearnCold: 2048, wlHotRepeat: 4096, wlIngest: 8192}
)

// timedPerClient is the number of timed requests each client sends,
// rounded up to a multiple of block.
func timedPerClient(workload string, seconds, block int) int {
	total := int(qpsEstimate[workload] * float64(seconds))
	if total < minTimed[workload] {
		total = minTimed[workload]
	}
	per := (total + clients - 1) / clients
	return (per + block - 1) / block * block
}

// generate builds the plan of a workload. It is a pure function of its
// arguments.
func generate(workload string, seed int64, seconds int) (*plan, error) {
	g := &gen{rng: par.NewRand(uint64(seed)), seed: uint64(seed), truth: map[int][]float64{}}
	p := &plan{workload: workload, truth: g.truth}
	switch workload {
	case wlLearnCold:
		g.learnCold(p, seconds)
	case wlHotRepeat:
		g.hotRepeat(p, seconds)
	case wlIngest:
		if err := g.ingestRelearn(p, seconds); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloads)
	}
	return p, nil
}

type gen struct {
	rng   *rand.Rand
	seed  uint64
	qid   int
	truth map[int][]float64
}

func (g *gen) nextQID() int {
	g.qid++
	return g.qid
}

// reqSeed derives the i-th distinct request seed of the run.
func (g *gen) reqSeed(i int) int64 {
	return int64(par.Split(g.seed, i) >> 1)
}

// pmfOf resolves a generator source exactly as the server does (through
// the shared registry), for the learn error.
func pmfOf(src serve.SourceSpec) []float64 {
	d, err := cli.Generate(src.Gen, src.N, src.K, src.Seed)
	if err != nil {
		panic(fmt.Sprintf("perfbench: generator source %+v: %v", src, err))
	}
	return d.PMF()
}

// algo builds one learn or tester request over a generator source.
func (g *gen) algo(op, tenant string, src serve.SourceSpec, k int, eps, scale float64, capN int, seed int64, binary bool, truth []float64) request {
	r := request{op: op, binary: binary, qid: g.nextQID(), n: src.N}
	if op == opLearn {
		r.learn = &serve.LearnRequest{Tenant: tenant, Source: src, K: k, Eps: eps, Scale: scale, Cap: capN, Seed: seed}
		g.truth[r.qid] = truth
	} else {
		r.test = &serve.TestRequest{Tenant: tenant, Source: src, K: k, Eps: eps, Scale: scale, Cap: capN, Seed: seed}
	}
	r.body = encodeRequest(&r)
	return r
}

// mixBlock is the 2:1:1 learn/l2/l1 op mix, shuffled per block.
var mixBlock = []string{opLearn, opLearn, opTestL2, opTestL1}

// learnCold: every request is a distinct miss (a fresh draw seed), on
// one source of one cost class, from 8 tenants. Warm-up sends testers
// only, whose bundles are the large ones, enough of them to overfill
// the tabulation cache: 256 bundles of about 2.8 MB each give even a
// shard that draws only one tenant in eight about 90 MB against its
// 64 MiB share.
func (g *gen) learnCold(p *plan, seconds int) {
	const (
		tenants     = 8
		warmPerClnt = 128
	)
	src := serve.SourceSpec{Gen: "zipf", N: 512}
	truth := pmfOf(src)
	seq := 0
	mk := func(op string) request {
		tenant := fmt.Sprintf("t%d", g.rng.Intn(tenants))
		r := g.algo(op, tenant, src, 4, 0.2, 0.02, 8000, g.reqSeed(seq), false, truth)
		seq++
		return r
	}
	for c := 0; c < clients; c++ {
		var warm []request
		for i := range warmPerClnt {
			warm = append(warm, mk([]string{opTestL2, opTestL1}[i%2]))
		}
		p.warm = append(p.warm, warm)
	}
	per := timedPerClient(wlLearnCold, seconds, len(mixBlock))
	for c := 0; c < clients; c++ {
		var timed []request
		for len(timed) < per {
			ops := append([]string(nil), mixBlock...)
			g.rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
			for _, op := range ops {
				timed = append(timed, mk(op))
			}
		}
		p.timed = append(p.timed, timed)
	}
	p.fillsCache = true
}

// hotRepeat: a 256-query working set (half JSON, half binary) computed
// in warm-up, then replayed in seeded shuffles, so every timed request
// is a response-cache hit. The domain is small enough that the whole
// set's tabulations (about 40 MB) fit even one shard's share of the
// bundle cache, so no eviction invalidates a stored response.
func (g *gen) hotRepeat(p *plan, seconds int) {
	const (
		working    = 256
		tenants    = 8
		warmRounds = 8
	)
	src := serve.SourceSpec{Gen: "zipf", N: 64}
	truth := pmfOf(src)
	set := make([]request, working)
	for q := range set {
		op := mixBlock[q%len(mixBlock)]
		binary := (q/len(mixBlock))%2 == 1
		set[q] = g.algo(op, fmt.Sprintf("h%d", g.rng.Intn(tenants)), src, 4, 0.25, 0.02, 2000, g.reqSeed(q), binary, truth)
	}
	// Each client computes half of the set, reads its half back once,
	// then replays the whole set warmRounds times, so warm-up ends with
	// every entry stored and verified and the hit path running.
	for c := 0; c < clients; c++ {
		half := set[c*working/clients : (c+1)*working/clients]
		warm := append(append([]request(nil), half...), half...)
		for range warmRounds {
			for _, i := range g.rng.Perm(working) {
				warm = append(warm, set[i])
			}
		}
		p.warm = append(p.warm, warm)
	}
	per := timedPerClient(wlHotRepeat, seconds, working)
	for c := 0; c < clients; c++ {
		timed := make([]request, 0, per)
		for len(timed) < per {
			for _, i := range g.rng.Perm(working) {
				timed = append(timed, set[i])
			}
		}
		p.timed = append(p.timed, timed)
	}
}

// ingestRelearn: 8 streams of one tenant, each client owning 4 of them
// (so every stream's batch order is fixed). Warm-up pre-fills every
// stream past the server's reservoir; then each client cycles: one
// 256-value ingest batch, one stream-sourced learn (a miss: snapshot,
// tabulate, learn), and repeatLearns identical learns that revalidate
// the stream version and hit the response cache. A stream's learn
// request rotates through learnSeeds draw seeds, so byte-identical
// requests recur across versions (a stale cached answer would show)
// while the learn error averages over many draws.
func (g *gen) ingestRelearn(p *plan, seconds int) error {
	const (
		streams      = 8
		n            = 512
		batch        = 256
		repeatLearns = 6
		learnSeeds   = 32
		warmCycles   = 3
		tenant       = "ing"
	)
	prefill := serve.DefaultStreamReservoir/batch + 1
	type streamState struct {
		id      string
		sampler dist.Sampler
		counts  []int64
		total   int64
		version uint64
		cycles  int
		learn   []*serve.LearnRequest
	}
	// Every stream observes the same zipf law; the streams differ in
	// their draws.
	d, err := cli.Generate("zipf", n, 0, 0)
	if err != nil {
		return err
	}
	st := make([]*streamState, streams)
	for i := range st {
		id := fmt.Sprintf("s%d", i)
		st[i] = &streamState{
			id:      id,
			sampler: dist.NewSampler(d, par.NewRand(uint64(g.reqSeed(2000+i)))),
			counts:  make([]int64, n),
		}
		for j := range learnSeeds {
			st[i].learn = append(st[i].learn, &serve.LearnRequest{Tenant: tenant, Source: serve.SourceSpec{Stream: id},
				K: 4, Eps: 0.2, Scale: 0.02, Cap: 8000, Seed: g.reqSeed(3000 + learnSeeds*i + j)})
		}
	}
	ingest := func(s *streamState) request {
		vals := make([]int, batch)
		for i := range vals {
			vals[i] = s.sampler.Sample()
			s.counts[vals[i]]++
		}
		s.total += batch
		s.version++
		r := request{op: opIngest, qid: g.nextQID(), n: n, version: s.version, count: s.total,
			ingest: &serve.IngestRequest{Tenant: tenant, Stream: s.id, N: n, Values: vals}}
		r.body = encodeRequest(&r)
		return r
	}
	cycle := func(s *streamState) []request {
		out := []request{ingest(s)}
		qid := g.nextQID()
		truth := make([]float64, n)
		for v, c := range s.counts {
			truth[v] = float64(c) / float64(s.total)
		}
		g.truth[qid] = truth
		learn := s.learn[s.cycles%learnSeeds]
		s.cycles++
		for i := 0; i <= repeatLearns; i++ {
			r := request{op: opLearn, qid: qid, n: n, fresh: i == 0, learn: learn}
			r.body = encodeRequest(&r)
			out = append(out, r)
		}
		return out
	}
	cycleLen := 2 + repeatLearns
	per := timedPerClient(wlIngest, seconds, cycleLen*streams/clients)
	for c := 0; c < clients; c++ {
		var own []*streamState
		for i := c; i < streams; i += clients {
			own = append(own, st[i])
		}
		var warm []request
		for b := 0; b < prefill; b++ {
			for _, s := range own {
				warm = append(warm, ingest(s))
			}
		}
		for range warmCycles {
			for _, s := range own {
				warm = append(warm, cycle(s)...)
			}
		}
		p.warm = append(p.warm, warm)
		var timed []request
		for len(timed) < per {
			for _, s := range own {
				timed = append(timed, cycle(s)...)
			}
		}
		p.timed = append(p.timed, timed)
	}
	return nil
}

// encodeRequest renders a request body in its wire encoding.
func encodeRequest(r *request) []byte {
	if r.binary {
		switch {
		case r.learn != nil:
			return appendLearnRequest(nil, r.learn)
		case r.test != nil:
			return appendTestRequest(nil, r.test, r.op)
		}
		panic("perfbench: binary encoding covers learn and test requests only")
	}
	var v any
	switch {
	case r.learn != nil:
		v = r.learn
	case r.test != nil:
		v = r.test
	default:
		v = r.ingest
	}
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: encoding %s request: %v", r.op, err))
	}
	return b
}
