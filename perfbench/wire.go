package main

import (
	"encoding/json"
	"fmt"
	"math"

	"khist/internal/dist"
	"khist/internal/serve"
)

// The application/x-khist-bin wire format, as documented in
// internal/serve/bincodec.go. The server keeps its codec unexported, so
// the benchmark writes requests and reads responses with the same
// exported internal/dist primitives:
//
//	request  = "khQ1" | op byte | fields
//	response = "khR1" | op byte | fields
const (
	binReqMagic  = "khQ1"
	binRespMagic = "khR1"
)

var binOp = map[string]byte{opLearn: 1, opTestL2: 2, opTestL1: 3}

func appendSource(buf []byte, s serve.SourceSpec) []byte {
	buf = dist.AppendString(buf, s.Gen)
	buf = dist.AppendVarint(buf, int64(s.N))
	buf = dist.AppendVarint(buf, int64(s.K))
	buf = dist.AppendVarint(buf, s.Seed)
	buf = dist.AppendFloat64s(buf, s.Weights)
	return dist.AppendString(buf, s.Stream)
}

func appendLearnRequest(buf []byte, r *serve.LearnRequest) []byte {
	buf = append(buf, binReqMagic...)
	buf = append(buf, binOp[opLearn])
	buf = dist.AppendString(buf, r.Tenant)
	buf = appendSource(buf, r.Source)
	buf = dist.AppendVarint(buf, int64(r.K))
	buf = dist.AppendFloat64(buf, r.Eps)
	buf = dist.AppendFloat64(buf, r.Scale)
	buf = dist.AppendVarint(buf, int64(r.Cap))
	buf = dist.AppendVarint(buf, r.Seed)
	if r.Full {
		return append(buf, 1)
	}
	return append(buf, 0)
}

func appendTestRequest(buf []byte, r *serve.TestRequest, op string) []byte {
	buf = append(buf, binReqMagic...)
	buf = append(buf, binOp[op])
	buf = dist.AppendString(buf, r.Tenant)
	buf = appendSource(buf, r.Source)
	buf = dist.AppendVarint(buf, int64(r.K))
	buf = dist.AppendFloat64(buf, r.Eps)
	buf = dist.AppendFloat64(buf, r.Scale)
	buf = dist.AppendVarint(buf, int64(r.Cap))
	return dist.AppendVarint(buf, r.Seed)
}

// binReader reads the fields of one binary response frame, keeping the
// first error.
type binReader struct {
	data []byte
	max  int
	err  error
}

func (b *binReader) int() int {
	if b.err != nil {
		return 0
	}
	v, rest, err := dist.ReadVarint(b.data)
	b.data, b.err = rest, err
	return int(v)
}

func (b *binReader) ints() []int {
	if b.err != nil {
		return nil
	}
	v, rest, err := dist.ReadDeltaInts(b.data, b.max+1)
	b.data, b.err = rest, err
	return v
}

func (b *binReader) floats() []float64 {
	if b.err != nil {
		return nil
	}
	v, rest, err := dist.ReadFloat64s(b.data, b.max)
	b.data, b.err = rest, err
	return v
}

func (b *binReader) done() error {
	if b.err == nil && len(b.data) != 0 {
		b.err = fmt.Errorf("%d trailing bytes after binary frame", len(b.data))
	}
	return b.err
}

func binFrame(body []byte, op string) ([]byte, error) {
	h := len(binRespMagic)
	if len(body) < h+1 || string(body[:h]) != binRespMagic || body[h] != binOp[op] {
		return nil, fmt.Errorf("binary %s response lacks the %q magic and op %d", op, binRespMagic, binOp[op])
	}
	return body[h+1:], nil
}

// decodeLearn parses a learn response in either encoding.
func decodeLearn(body []byte, binary bool, n int) (*serve.LearnResponse, error) {
	var r serve.LearnResponse
	if !binary {
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, fmt.Errorf("learn response: %w", err)
		}
		return &r, nil
	}
	data, err := binFrame(body, opLearn)
	if err != nil {
		return nil, err
	}
	b := &binReader{data: data, max: n}
	r.N, r.K = b.int(), b.int()
	r.Bounds, r.Values = b.ints(), b.floats()
	r.Pieces = b.int()
	r.SamplesUsed = int64(b.int())
	r.Iterations = b.int()
	r.CandidatesScanned = int64(b.int())
	r.Ell, r.R, r.M = b.int(), b.int(), b.int()
	if err := b.done(); err != nil {
		return nil, fmt.Errorf("learn response: %w", err)
	}
	return &r, nil
}

// decodeTest parses a tester response in either encoding.
func decodeTest(body []byte, binary bool, op string, n int) (*serve.TestResponse, error) {
	var r serve.TestResponse
	if !binary {
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, fmt.Errorf("test response: %w", err)
		}
		return &r, nil
	}
	data, err := binFrame(body, op)
	if err != nil {
		return nil, err
	}
	if len(data) < 1 || data[0] > 1 {
		return nil, fmt.Errorf("test response: bad accept byte")
	}
	r.Accept = data[0] == 1
	r.Norm = "l2"
	if op == opTestL1 {
		r.Norm = "l1"
	}
	b := &binReader{data: data[1:], max: n}
	count := b.int()
	if b.err == nil && (count < 0 || count > n) {
		return nil, fmt.Errorf("test response: partition count %d outside [0, %d]", count, n)
	}
	for i := 0; i < count && b.err == nil; i++ {
		r.Partition = append(r.Partition, serve.IntervalJSON{Lo: b.int(), Hi: b.int()})
	}
	r.SamplesUsed = int64(b.int())
	r.FlatnessCalls = b.int()
	r.R, r.M = b.int(), b.int()
	if err := b.done(); err != nil {
		return nil, fmt.Errorf("test response: %w", err)
	}
	return &r, nil
}

// massTolerance bounds |sum_i H(i) - 1| for a learned histogram.
const massTolerance = 1e-9

// checkLearn validates a learned histogram's structure: bounds strictly
// increase from 0 to n, one finite non-negative value per piece, and
// the pieces' mass sums to 1.
func checkLearn(r *serve.LearnResponse, n int) error {
	b := r.Bounds
	if r.N != n || len(b) < 2 || b[0] != 0 || b[len(b)-1] != n {
		return fmt.Errorf("learn: bounds %v do not cover [0,%d) (n=%d)", b, n, r.N)
	}
	if len(r.Values) != len(b)-1 || r.Pieces != len(r.Values) {
		return fmt.Errorf("learn: %d bounds, %d values, pieces=%d", len(b), len(r.Values), r.Pieces)
	}
	var mass float64
	for j, v := range r.Values {
		if b[j+1] <= b[j] {
			return fmt.Errorf("learn: bounds not increasing at %d: %v", j, b)
		}
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("learn: piece %d value %v", j, v)
		}
		mass += v * float64(b[j+1]-b[j])
	}
	if math.Abs(mass-1) > massTolerance {
		return fmt.Errorf("learn: mass %.15f, want 1 within %g", mass, massTolerance)
	}
	return nil
}

// checkTest validates a tester verdict: the partition is a run of
// adjacent non-empty intervals from 0, at most k of them, covering
// [0,n) exactly when the tester accepts.
func checkTest(r *serve.TestResponse, op string, n, k int) error {
	if want := map[string]string{opTestL2: "l2", opTestL1: "l1"}[op]; r.Norm != want {
		return fmt.Errorf("%s: norm %q", op, r.Norm)
	}
	if len(r.Partition) > k {
		return fmt.Errorf("%s: %d intervals for k=%d", op, len(r.Partition), k)
	}
	at := 0
	for _, iv := range r.Partition {
		if iv.Lo != at || iv.Hi <= iv.Lo || iv.Hi > n {
			return fmt.Errorf("%s: partition %v is not adjacent intervals from 0 within [0,%d)", op, r.Partition, n)
		}
		at = iv.Hi
	}
	if r.Accept != (at == n) {
		return fmt.Errorf("%s: accept=%v but partition ends at %d of %d", op, r.Accept, at, n)
	}
	return nil
}

// l2To returns ||p - H||_2 for a learned histogram.
func l2To(p []float64, r *serve.LearnResponse) float64 {
	var s float64
	for j, v := range r.Values {
		for i := r.Bounds[j]; i < r.Bounds[j+1]; i++ {
			d := p[i] - v
			s += d * d
		}
	}
	return math.Sqrt(s)
}
