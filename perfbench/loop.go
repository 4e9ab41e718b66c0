package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"sync"
	"time"

	"khist/internal/serve"
)

// outcome is what a client observed for one request.
type outcome struct {
	status int
	cache  string
	hash   [sha256.Size]byte
	lat    time.Duration
	end    time.Duration // completion time since the phase started
	err    error
}

// phase is one closed-loop pass over per-client request lists.
type phase struct {
	name string
	reqs [][]request
	out  [][]outcome
	// first holds, per client, the first body seen for each qid; the
	// gate validates it after the phase, off the timed path.
	first []map[int][]byte
	start time.Time
	wall  time.Duration
}

// hook runs after each request in a client goroutine (the traced
// replay records its spans there); nil for live phases.
type hook func(client, i int, r *request, o *outcome)

// runPhase sends each list through its client, one request at a time,
// all clients concurrently, and returns what they observed.
func runPhase(name string, reqs [][]request, doers []doer, after hook) *phase {
	ph := &phase{name: name, reqs: reqs, out: make([][]outcome, len(reqs)), first: make([]map[int][]byte, len(reqs))}
	var wg sync.WaitGroup
	start := time.Now()
	ph.start = start
	for c := range reqs {
		ph.out[c] = make([]outcome, len(reqs[c]))
		ph.first[c] = map[int][]byte{}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := range reqs[c] {
				r := &reqs[c][i]
				t0 := time.Now()
				status, cache, body, err := doers[c].do(r)
				o := &ph.out[c][i]
				o.end = time.Since(start)
				o.lat = o.end - t0.Sub(start)
				o.status, o.cache, o.err = status, cache, err
				o.hash = sha256.Sum256(body)
				if _, seen := ph.first[c][r.qid]; !seen {
					ph.first[c][r.qid] = body
				}
				if after != nil {
					after(c, i, r, o)
				}
			}
		}(c)
	}
	wg.Wait()
	ph.wall = time.Since(start)
	return ph
}

func (ph *phase) sent() int {
	n := 0
	for _, l := range ph.reqs {
		n += len(l)
	}
	return n
}

// latenciesMS returns every request's latency in milliseconds.
func (ph *phase) latenciesMS() []float64 {
	var xs []float64
	for _, l := range ph.out {
		for _, o := range l {
			xs = append(xs, float64(o.lat)/1e6)
		}
	}
	return xs
}

// gate is the correctness gate: it checks every response of every
// phase of a run and accumulates the learn error of timed answers.
type gate struct {
	truth      map[int][]float64
	hashes     map[int][sha256.Size]byte
	validated  map[int]bool
	learnErr   map[int]float64
	attempted  int
	failed     int
	violations int
	shown      []string
}

func newGate(p *plan) *gate {
	return &gate{truth: p.truth, hashes: map[int][sha256.Size]byte{}, validated: map[int]bool{}, learnErr: map[int]float64{}}
}

const maxShownViolations = 20

func (g *gate) violate(format string, args ...any) {
	g.violations++
	if len(g.shown) < maxShownViolations {
		g.shown = append(g.shown, fmt.Sprintf(format, args...))
	}
}

// check runs the gate over a finished phase and prints its tally.
// Timed phases contribute to the learn error.
func (g *gate) check(ph *phase, timed bool) {
	ok, failed := 0, 0
	for c, l := range ph.reqs {
		for i := range l {
			r, o := &l[i], &ph.out[c][i]
			g.attempted++
			if o.err != nil || o.status != 200 {
				failed++
				g.failed++
				g.violate("%s: client %d request %d (%s): status %d err %v", ph.name, c, i, r.op, o.status, o.err)
				continue
			}
			ok++
			if prev, seen := g.hashes[r.qid]; seen && prev != o.hash {
				g.violate("%s: client %d request %d (%s): answer differs from an earlier answer to the same query", ph.name, c, i, r.op)
			} else if !seen {
				g.hashes[r.qid] = o.hash
			}
			if r.fresh && o.cache == "rhit" {
				g.violate("%s: client %d request %d: first stream read after an ingest answered from the response cache", ph.name, c, i)
			}
			if !g.validated[r.qid] {
				g.validated[r.qid] = true
				if err := g.validate(r, ph.first[c][r.qid], timed); err != nil {
					g.violate("%s: client %d request %d: %v", ph.name, c, i, err)
				}
			} else if timed && r.op == opLearn {
				if _, counted := g.learnErr[r.qid]; !counted {
					g.learnErr[r.qid] = g.errOf(r, ph.first[c][r.qid])
				}
			}
		}
	}
	fmt.Printf("phase %-22s sent=%d succeeded=%d failed=%d wall_s=%.3f\n", ph.name, ph.sent(), ok, failed, ph.wall.Seconds())
}

// validate checks one answer's structure and, for timed learn answers,
// records its error against the true distribution.
func (g *gate) validate(r *request, body []byte, timed bool) error {
	switch r.op {
	case opLearn:
		lr, err := decodeLearn(body, r.binary, r.n)
		if err != nil {
			return err
		}
		if err := checkLearn(lr, r.n); err != nil {
			return err
		}
		if timed {
			g.learnErr[r.qid] = l2To(g.truth[r.qid], lr)
		}
	case opTestL2, opTestL1:
		tr, err := decodeTest(body, r.binary, r.op, r.n)
		if err != nil {
			return err
		}
		return checkTest(tr, r.op, r.n, r.test.K)
	case opIngest:
		var ir serve.IngestResponse
		if err := json.Unmarshal(body, &ir); err != nil {
			return fmt.Errorf("ingest response: %w", err)
		}
		want := serve.IngestResponse{Stream: r.ingest.Stream, Version: r.version, Count: r.count, N: r.n}
		if ir != want {
			return fmt.Errorf("ingest acknowledged %+v, want %+v", ir, want)
		}
	}
	return nil
}

// errOf is the learn error of an already validated answer.
func (g *gate) errOf(r *request, body []byte) float64 {
	lr, err := decodeLearn(body, r.binary, r.n)
	if err != nil {
		return 0
	}
	return l2To(g.truth[r.qid], lr)
}

// meanLearnErr is the mean ||p - H||_2 over the distinct learn answers
// of the timed phase.
func (g *gate) meanLearnErr() float64 {
	// Sum in qid order: a fixed order keeps the value bit-identical
	// across runs of one seed.
	var s float64
	for _, q := range slices.Sorted(maps.Keys(g.learnErr)) {
		s += g.learnErr[q]
	}
	return ratio(s, float64(len(g.learnErr)))
}

// digest hashes every timed answer in request order, so two runs of
// one seed can be compared by a single line.
func digest(ph *phase) string {
	h := sha256.New()
	for _, l := range ph.out {
		for _, o := range l {
			h.Write(o.hash[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
