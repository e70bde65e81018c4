package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// dbName is the database every workload uses.
const dbName = "movies"

// Server is one running `imprecise serve` process.
type Server struct {
	URL    string
	cmd    *exec.Cmd
	stderr *bytes.Buffer
	waited chan struct{}
	err    error
}

// startServer launches `imprecise serve` with args on a loopback port
// the kernel picks, and returns once the process printed its listen
// address.
func startServer(bin string, args ...string) (*Server, error) {
	args = append([]string{"serve", "-addr", "127.0.0.1:0", "-quiet"}, args...)
	cmd := exec.Command(bin, args...)
	// A server must not outlive the benchmark, even one killed mid-run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	s := &Server{cmd: cmd, stderr: &bytes.Buffer{}, waited: make(chan struct{})}
	cmd.Stderr = &lockedWriter{w: s.stderr}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	lines := bufio.NewScanner(stdout)
	addr := make(chan string, 1)
	go func() {
		sent := false
		for lines.Scan() {
			line := lines.Text()
			if _, rest, ok := strings.Cut(line, "serving IMPrECISE on "); ok && !sent {
				u, _, _ := strings.Cut(rest, " ")
				addr <- u
				sent = true
			}
		}
		if !sent {
			close(addr)
		}
	}()
	go func() {
		s.err = cmd.Wait()
		close(s.waited)
	}()
	select {
	case u, ok := <-addr:
		if !ok {
			<-s.waited
			return nil, fmt.Errorf("server exited before listening: %v: %s", s.err, s.stderr.String())
		}
		s.URL = u
		return s, nil
	case <-time.After(120 * time.Second):
		s.Stop()
		return nil, errors.New("server did not start within 120s")
	}
}

// Pid is the server's process id.
func (s *Server) Pid() int { return s.cmd.Process.Pid }

// Stop kills the process and waits until it has ended.
func (s *Server) Stop() {
	select {
	case <-s.waited:
		return
	default:
	}
	_ = s.cmd.Process.Signal(syscall.SIGKILL) // it may have exited on its own
	<-s.waited
}

// PeakRSSMiB reads the process's peak resident set (VmHWM).
func (s *Server) PeakRSSMiB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.Pid()))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// Client is the load generator's HTTP client. It holds at most conns
// connections per server.
type Client struct {
	hc *http.Client
}

func newClient(conns int) *Client {
	tr := &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}
	return &Client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *Client) close() { c.hc.CloseIdleConnections() }

// do sends a request and returns the body of a 2xx answer; any other
// status is an error.
func (c *Client) do(ctx context.Context, method, u string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, rd)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return data, fmt.Errorf("%s %s: status %d: %s", method, u, resp.StatusCode, firstLine(data))
	}
	return data, nil
}

func (c *Client) getJSON(ctx context.Context, u string, v any) error {
	data, err := c.do(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

func firstLine(b []byte) string {
	s, _, _ := strings.Cut(string(b), "\n")
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}

func queryURL(base, q string) string {
	return base + "/dbs/" + dbName + "/query?q=" + url.QueryEscape(q)
}

// replicationStatus is the subset of GET /replication this benchmark
// reads, on either role.
type replicationStatus struct {
	Databases []struct {
		Name        string `json:"name"`
		LastSeq     uint64 `json:"last_seq"`
		Digest      string `json:"digest"`
		LastApplied uint64 `json:"last_applied"`
		CaughtUp    bool   `json:"caught_up"`
		Divergences int64  `json:"divergences"`
	} `json:"databases"`
}

// waitHealthy polls /healthz until it answers 200.
func waitHealthy(ctx context.Context, c *Client, base string) error {
	for {
		if _, err := c.do(ctx, http.MethodGet, base+"/healthz", nil); err == nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("waiting for %s/healthz: %w", base, ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// waitApplied polls the follower's /replication until dbName reports
// last_applied >= seq.
func waitApplied(ctx context.Context, c *Client, follower string, seq uint64) error {
	for {
		var st replicationStatus
		if err := c.getJSON(ctx, follower+"/replication", &st); err == nil {
			for _, d := range st.Databases {
				if d.Name == dbName && d.LastApplied >= seq {
					return nil
				}
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("waiting for follower to apply seq %d: %w", seq, ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// waitVisible blocks until the follower has applied seq. It long-polls
// the follower's own log (GET /dbs/{name}/wal), whose page reports the
// sequence the follower's readable tree reflects, and falls back to
// /replication when the follower compacted that log position away.
func waitVisible(ctx context.Context, c *Client, follower string, seq uint64) error {
	u := fmt.Sprintf("%s/dbs/%s/wal?since=%d&limit=1&wait=5000", follower, dbName, seq-1)
	for {
		var page struct {
			LastSeq uint64 `json:"last_seq"`
		}
		err := c.getJSON(ctx, u, &page)
		if err == nil && page.LastSeq >= seq {
			return nil
		}
		if err != nil {
			if ctx.Err() != nil {
				return err
			}
			return waitApplied(ctx, c, follower, seq)
		}
	}
}
