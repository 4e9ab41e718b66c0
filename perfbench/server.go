package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"

	"khist/internal/serve"
)

// serverArgs are the flags the benchmark passes to khist-server: only a
// loopback ephemeral port. Every other setting is the shipped default,
// so the metrics and tracing planes run as users run them.
var serverArgs = []string{"-addr", "127.0.0.1:0"}

// serverProc is a running khist-server child.
type serverProc struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	http   *http.Client
	exited chan struct{}
}

// startServer execs the server binary and waits until it listens and
// answers /healthz.
func startServer(bin string) (*serverProc, error) {
	cmd := exec.Command(bin, serverArgs...)
	cmd.Stderr = os.Stderr
	// The server must not outlive the benchmark, however it exits.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	addr := &addrWriter{addr: make(chan string, 1)}
	cmd.Stdout = addr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &serverProc{cmd: cmd, http: &http.Client{Timeout: 30 * time.Second}, exited: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(s.exited)
	}()
	select {
	case a := <-addr.addr:
		s.base = "http://" + a
	case <-s.exited:
		return nil, fmt.Errorf("khist-server exited before listening: %v", cmd.ProcessState)
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, fmt.Errorf("khist-server did not report its address within 30s")
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := s.http.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("khist-server at %s not healthy within 30s: %v", s.base, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// addrWriter is the server's stdout: it picks the listen address out
// of the startup line and discards the rest.
type addrWriter struct {
	buf  []byte
	addr chan string
}

func (w *addrWriter) Write(p []byte) (int, error) {
	if w.addr == nil {
		return len(p), nil
	}
	w.buf = append(w.buf, p...)
	for {
		i := bytes.IndexByte(w.buf, '\n')
		if i < 0 {
			return len(p), nil
		}
		const prefix = "khist-server: listening on "
		if line := string(w.buf[:i]); strings.HasPrefix(line, prefix) {
			w.addr <- strings.Fields(line[len(prefix):])[0]
			w.addr, w.buf = nil, nil
			return len(p), nil
		}
		w.buf = w.buf[i+1:]
	}
}

func (s *serverProc) pid() int { return s.cmd.Process.Pid }

// stop terminates the server (SIGTERM, then SIGKILL after 10s) and
// waits for it to exit.
func (s *serverProc) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
	s.http.CloseIdleConnections()
}

// stats fetches /v1/stats.
func (s *serverProc) stats() (*serve.StatsResponse, error) {
	resp, err := s.http.Get(s.base + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/v1/stats: status %d", resp.StatusCode)
	}
	var st serve.StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, fmt.Errorf("/v1/stats: %w", err)
	}
	return &st, nil
}

// doer sends one request and returns status, cache header and body.
// The live client and the in-process replay both implement it, so the
// correctness gate sees both through one path.
type doer interface {
	do(r *request) (status int, cache string, body []byte, err error)
}

// maxResponseBytes bounds a response read; learn and test answers are
// a few KiB.
const maxResponseBytes = 4 << 20

// httpClient is one closed-loop client: a single keep-alive connection.
type httpClient struct {
	base string
	c    *http.Client
}

func newHTTPClient(base string) *httpClient {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &httpClient{base: base, c: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (h *httpClient) do(r *request) (int, string, []byte, error) {
	req, err := http.NewRequestWithContext(context.Background(), http.MethodPost, h.base+opPath[r.op], bytes.NewReader(r.body))
	if err != nil {
		return 0, "", nil, err
	}
	setHeaders(req, r)
	resp, err := h.c.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
	if err != nil {
		return 0, "", nil, err
	}
	return resp.StatusCode, resp.Header.Get(serve.CacheHeader), body, nil
}

func (h *httpClient) close() { h.c.CloseIdleConnections() }

func setHeaders(req *http.Request, r *request) {
	if r.binary {
		req.Header.Set("Content-Type", serve.BinaryContentType)
		req.Header.Set("Accept", serve.BinaryContentType)
	} else {
		req.Header.Set("Content-Type", "application/json")
	}
}
