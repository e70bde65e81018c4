package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pxml"
)

// Frozen per-workload constants. The open-loop read rates are fixed
// here, not computed at run time, so two commits are always compared at
// the same offered load. README.md gives the basis of each.
const (
	hotRate   = 1000.0 // read_hot: about 10% of its measured capacity
	coldRate  = 150.0  // read_cold: about 14% of its measured capacity
	mixedRate = 40.0   // ingest_mixed: about 3 reads per commit
	// Latency limits on query_p99_ms, per workload: choices, printed
	// with a verdict but not gated.
	hotP99LimitMS   = 5.0
	coldP99LimitMS  = 50.0
	mixedP99LimitMS = 100.0
	// setupRounds is how many primary+follower start-ups one run times.
	setupRounds = 5
	// warmup runs before any timed phase (caches fill, connections open).
	warmup = time.Second
	// Shares (percent) of -seconds the read workloads spend in their
	// open-loop latency phase and closed-loop capacity phase.
	openShare, closedShare = 50, 30
	// segments is how many parts the read workloads' open-loop and
	// closed-loop phases are cut into, alternating, and how many parts
	// ingest_mixed's closed-loop phase is cut into. Capacity is the
	// median over the closed-loop parts, so a slowdown of the host that
	// lasts a few seconds moves none of it.
	segments = 10
	// Ingest phases commit a fixed number of sources per measured second
	// (-seconds), so both sides of a comparison end on the same document.
	probeOpsPerSecond = 5  // read workloads' closing ingest probe
	mixedOpsPerSecond = 10 // ingest_mixed's writer
)

// workloads lists the workload names in the order BENCHMARK.json does.
var workloads = []string{"read_hot", "read_cold", "ingest_mixed"}

// Metric is one reported number.
type Metric struct {
	Name  string
	Value float64
	Unit  string
}

// Report is what one run prints.
type Report struct {
	Correct bool
	Tally
	Metrics []Metric
	// Notes are the descriptor lines printed before the result.
	Notes []string
	// Problems are correctness-gate failures.
	Problems []string
}

func (r *Report) metric(name string, v float64, unit string) {
	r.Metrics = append(r.Metrics, Metric{Name: name, Value: v, Unit: unit})
}

func (r *Report) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *Report) fail(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// runner carries one untraced run's state.
type runner struct {
	seconds time.Duration
	bin     string
	in      *Inputs
	env     *Env
	conns   int
	client  *Client
	rep     *Report

	primary, follower *Server
	// seq is the primary's last committed sequence; acked the sources
	// the primary acknowledged, in order.
	seq   uint64
	acked []Source
	// commits counts acknowledged ingests (read by concurrent readers).
	commits atomic.Int64

	// failedReads counts reads that failed and firstReadErr keeps the
	// first one, for the correctness gate.
	readMu       sync.Mutex
	failedReads  int
	firstReadErr error
}

// runWorkload performs one untraced run against real servers.
func runWorkload(ctx context.Context, workload string, seconds int, bin string, in *Inputs, env *Env) (*Report, error) {
	conns := runtime.NumCPU()
	r := &runner{
		seconds: time.Duration(seconds) * time.Second,
		bin:     bin,
		in:      in,
		env:     env,
		conns:   conns,
		client:  newClient(conns),
		rep:     &Report{},
		seq:     env.Seq,
	}
	defer r.client.close()
	defer r.stopServers()
	if err := r.setup(ctx); err != nil {
		return nil, err
	}
	var err error
	switch workload {
	case "read_hot":
		err = r.readWorkload(ctx, in.Hot, true, hotRate, hotP99LimitMS)
	case "read_cold":
		err = r.readWorkload(ctx, in.Cold, false, coldRate, coldP99LimitMS)
	case "ingest_mixed":
		err = r.mixedWorkload(ctx)
	default:
		err = fmt.Errorf("unknown workload %q", workload)
	}
	if err != nil {
		return nil, err
	}
	rss, err := r.primary.PeakRSSMiB()
	if err != nil {
		return nil, err
	}
	r.rep.metric("primary_rss_mb", rss, "MiB")
	if err := r.checkFinalState(ctx); err != nil {
		return nil, err
	}
	r.checkReads()
	r.rep.Correct = len(r.rep.Problems) == 0
	return r.rep, nil
}

func (r *runner) stopServers() {
	if r.follower != nil {
		r.follower.Stop()
	}
	if r.primary != nil {
		r.primary.Stop()
	}
}

// setup starts primary+follower setupRounds times on fresh copies of the
// golden data directory, timing each from launching the primary to its
// /healthz answering plus from launching the follower to it having
// applied the primary's last sequence. The last pair stays up.
func (r *runner) setup(ctx context.Context) error {
	var times []float64
	for i := 0; i < setupRounds; i++ {
		r.stopServers()
		r.primary, r.follower = nil, nil
		pdir := filepath.Join(r.env.Work, fmt.Sprintf("primary-%d", i))
		fdir := filepath.Join(r.env.Work, fmt.Sprintf("follower-%d", i))
		if err := copyDir(r.env.Golden, pdir); err != nil {
			return err
		}
		if err := os.MkdirAll(fdir, 0o755); err != nil {
			return err
		}
		sctx, cancel := context.WithTimeout(ctx, 120*time.Second)
		t0 := time.Now()
		p, err := startServer(r.bin, append(r.env.serverArgs(), "-data", pdir)...)
		if err != nil {
			cancel()
			return fmt.Errorf("primary: %w", err)
		}
		r.primary = p
		if err := waitHealthy(sctx, r.client, p.URL); err != nil {
			cancel()
			return err
		}
		primaryUp := time.Since(t0)
		t1 := time.Now()
		f, err := startServer(r.bin, append(r.env.serverArgs(), "-data", fdir, "-replica-of", p.URL)...)
		if err != nil {
			cancel()
			return fmt.Errorf("follower: %w", err)
		}
		r.follower = f
		err = waitApplied(sctx, r.client, f.URL, r.env.Seq)
		cancel()
		if err != nil {
			return err
		}
		times = append(times, (primaryUp + time.Since(t1)).Seconds())
	}
	r.rep.metric("setup_s", median(times), "s")
	r.rep.note("setup_s rounds: %v", fmtFloats(times, 4))
	return nil
}

// readOp returns an operation that sends query qs[qi] and checks every
// answer body against the first one served for that query.
func (r *runner) readOp(qs []string, log *answerLog) func(qi int) error {
	urls := make([]string, len(qs))
	for i, q := range qs {
		urls[i] = queryURL(r.primary.URL, q)
	}
	return func(qi int) error {
		body, err := r.client.do(context.Background(), http.MethodGet, urls[qi], nil)
		if err != nil {
			r.readMu.Lock()
			if r.failedReads == 0 {
				r.firstReadErr = err
			}
			r.failedReads++
			r.readMu.Unlock()
			return err
		}
		if log != nil {
			log.record(qi, body)
		}
		return nil
	}
}

// checkReads is the gate on failed reads: a healthy run fails none, so
// any failed read, whatever its status, fails the run.
func (r *runner) checkReads() {
	if r.failedReads > 0 {
		r.rep.fail("%d read(s) failed; the first: %v", r.failedReads, r.firstReadErr)
	}
}

// picker draws query indexes: Zipf over the set or uniform.
type picker struct {
	mu   sync.Mutex
	rng  *rand.Rand
	z    *zipf
	size int
}

func newPicker(seed int64, size int, zipfian bool) *picker {
	p := &picker{rng: rand.New(rand.NewSource(seed)), size: size}
	if zipfian {
		p.z = newZipf(size, hotZipfS)
	}
	return p
}

func (p *picker) next() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.z != nil {
		return p.z.draw(p.rng)
	}
	return p.rng.Intn(p.size)
}

// readWorkload is read_hot or read_cold: warm-up, then segments that
// alternate between the open loop at the frozen rate and the closed-loop
// capacity phase, then a short ingest probe so every end-to-end metric
// exists on every workload.
func (r *runner) readWorkload(ctx context.Context, qs []string, zipfian bool, rate, limit float64) error {
	log := newAnswerLog()
	read := r.readOp(qs, log)
	pick := newPicker(r.in.Seed*7919+1, len(qs), zipfian)
	runClosedLoop(ctx, warmup, r.conns, func(_, _ int) error { return read(pick.next()) })
	before, err := r.cacheStats(ctx)
	if err != nil {
		return err
	}
	var open OpenLoopResult
	var closed []ClosedLoopResult
	for i := 0; i < segments; i++ {
		open.append(runOpenLoop(ctx, rate, r.seconds*openShare/100/segments, r.conns, func(int) error { return read(pick.next()) }))
		closed = append(closed, runClosedLoop(ctx, r.seconds*closedShare/100/segments, r.conns, func(_, _ int) error { return read(pick.next()) }))
	}
	after, err := r.cacheStats(ctx)
	if err != nil {
		return err
	}
	r.reportReads(open, closed, limit)
	r.rep.note("query set: %d distinct queries against a %d-entry result cache; result-cache hit ratio %.4f over the timed reads",
		len(qs), after.ResultCache.Capacity, hitRatio(before.ResultCache, after.ResultCache))
	r.rep.note("distinct queries served: %d", log.distinct())
	if err := r.checkAnswers(log, qs); err != nil {
		return err
	}
	return r.ingestPhase(ctx, probeOpsPerSecond*int(r.seconds/time.Second))
}

// mixedWorkload is ingest_mixed: one closed-loop writer beside an
// open-loop reader over the read_hot set, then a closed-loop capacity
// phase on the grown document.
func (r *runner) mixedWorkload(ctx context.Context) error {
	read := r.readOp(r.in.Hot, nil)
	pick := newPicker(r.in.Seed*7919+2, len(r.in.Hot), true)
	runClosedLoop(ctx, warmup, r.conns, func(_, _ int) error { return read(pick.next()) })
	before, err := r.cacheStats(ctx)
	if err != nil {
		return err
	}
	var afterPurge, reads atomic.Int64
	var lastSeen atomic.Int64
	var open OpenLoopResult
	var wg sync.WaitGroup
	wg.Add(1)
	readCtx, stopReads := context.WithCancel(ctx)
	defer stopReads()
	go func() {
		defer wg.Done()
		// One connection reads while the writer holds the other, until the
		// writer is done.
		open = runOpenLoop(readCtx, mixedRate, time.Hour, r.conns-1, func(int) error {
			c := r.commits.Load()
			if lastSeen.Swap(c) != c {
				afterPurge.Add(1)
			}
			reads.Add(1)
			return read(pick.next())
		})
	}()
	err = r.ingestPhase(ctx, mixedOpsPerSecond*int(r.seconds/time.Second))
	stopReads()
	wg.Wait()
	if err != nil {
		return err
	}
	var closed []ClosedLoopResult
	for i := 0; i < segments; i++ {
		closed = append(closed, runClosedLoop(ctx, r.seconds*closedShare/100/segments, r.conns, func(_, _ int) error { return read(pick.next()) }))
	}
	after, err := r.cacheStats(ctx)
	if err != nil {
		return err
	}
	r.reportReads(open, closed, mixedP99LimitMS)
	r.rep.note("query set: %d distinct queries against a %d-entry result cache; result-cache hit ratio %.4f over the timed reads",
		len(r.in.Hot), after.ResultCache.Capacity, hitRatio(before.ResultCache, after.ResultCache))
	r.rep.note("reads served after a purge (a commit since the previous read): %.4f of %d",
		float64(afterPurge.Load())/math.Max(1, float64(reads.Load())), reads.Load())
	return nil
}

func (r *runner) reportReads(open OpenLoopResult, closed []ClosedLoopResult, limit float64) {
	d := summarize(open.Latencies)
	late := summarize(open.Lateness)
	r.rep.metric("query_p50_ms", d.P50, "ms")
	r.rep.metric("query_rps", capacity(closed), "1/s")
	r.rep.add(open.Tally)
	var rates []string
	completed := 0
	for _, c := range closed {
		r.rep.add(c.Tally)
		completed += c.Completed
		rates = append(rates, fmt.Sprintf("%.0f", c.PerSecond()))
	}
	within := "meets"
	if d.Tail > limit {
		within = "misses"
	}
	// The tail is printed, not gated: on 2-vCPU hosts its run-to-run
	// spread is wider than the 0.25 bound of the gated metrics (README).
	r.rep.note("query_p99_ms %.6f ms (p%.4g of n=%d open-loop reads; %s the %.0f ms limit); p50 %.4f ms; generator late p50 %.4f ms, p%.4g %.4f ms",
		d.Tail, d.TailPct, d.N, within, limit, d.P50, late.P50, late.TailPct, late.Tail)
	r.rep.note("closed-loop reads: %d clients, %d completed in %d segments (per second: %v)",
		r.conns, completed, len(closed), rates)
}

// ingestPhase runs the closed-loop writer for ops sources: each is posted
// synchronously (timed until the durable ack), then the writer waits for
// the follower to apply that commit before sending the next.
func (r *runner) ingestPhase(ctx context.Context, ops int) error {
	var ingest, visible []float64
	var t Tally
	var kinds [numKinds]int
	start := time.Now()
	for i := 0; i < ops; i++ {
		src := r.in.Stream.Next()
		t.Attempted++
		t0 := time.Now()
		_, err := r.client.do(ctx, http.MethodPost, r.primary.URL+"/dbs/"+dbName+"/integrate", []byte(src.XML))
		t1 := time.Now()
		if err != nil {
			// The stream is now ahead of the primary's document; the
			// final-state gate reports the divergence.
			t.Failed++
			ingest = append(ingest, math.Inf(1))
			visible = append(visible, math.Inf(1))
			r.rep.fail("ingest %d: %v", len(r.acked)+t.Failed, err)
			continue
		}
		r.seq++
		r.acked = append(r.acked, src)
		r.commits.Add(1)
		for k := range kinds {
			kinds[k] += src.Kinds[k]
		}
		ingest = append(ingest, ms(t1.Sub(t0)))
		if err := waitVisible(ctx, r.client, r.follower.URL, r.seq); err != nil {
			return err
		}
		visible = append(visible, ms(time.Since(t0)))
	}
	elapsed := time.Since(start)
	di, dv := summarize(ingest), summarize(visible)
	r.rep.metric("ingest_p50_ms", di.P50, "ms")
	r.rep.metric("ingest_p99_ms", di.Tail, "ms")
	r.rep.metric("ingest_ops_s", float64(t.Attempted-t.Failed)/elapsed.Seconds(), "1/s")
	r.rep.metric("replica_visible_p50_ms", dv.P50, "ms")
	r.rep.metric("replica_visible_p99_ms", dv.Tail, "ms")
	r.rep.add(t)
	total := kinds[kindIdentical] + kinds[kindVariant] + kinds[kindNew]
	r.rep.note("ingest: n=%d, p50 %.4f ms, p%.4g %.4f ms; visible on follower p50 %.4f ms, p%.4g %.4f ms",
		di.N, di.P50, di.TailPct, di.Tail, dv.P50, dv.TailPct, dv.Tail)
	if total > 0 {
		r.rep.note("ingested records: %d (identical %.4f, variant %.4f, new %.4f)", total,
			float64(kinds[kindIdentical])/float64(total), float64(kinds[kindVariant])/float64(total), float64(kinds[kindNew])/float64(total))
	}
	return nil
}

// statsResponse is the subset of GET /dbs/{name}/stats this benchmark
// reads.
type statsResponse struct {
	ResultCache cacheCounters `json:"result_cache"`
	QueryCache  cacheCounters `json:"query_cache"`
}

type cacheCounters struct {
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
	Capacity int   `json:"capacity"`
}

func (r *runner) cacheStats(ctx context.Context) (statsResponse, error) {
	var st statsResponse
	err := r.client.getJSON(ctx, r.primary.URL+"/dbs/"+dbName+"/stats", &st)
	return st, err
}

func hitRatio(before, after cacheCounters) float64 {
	h, m := after.Hits-before.Hits, after.Misses-before.Misses
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// docNote describes a document for the descriptor lines.
func docNote(t *pxml.Tree) string {
	w := t.WorldCount()
	return fmt.Sprintf("%d nodes, %d choice points, 10^%.4f worlds", t.NodeCount(), t.ChoicePoints(), log10Big(w.String()))
}

// log10Big is log10 of a decimal integer string.
func log10Big(s string) float64 {
	if len(s) <= 15 {
		var v float64
		fmt.Sscanf(s, "%g", &v)
		return math.Log10(v)
	}
	var lead float64
	fmt.Sscanf(s[:15], "%g", &lead)
	return math.Log10(lead) + float64(len(s)-15)
}

func fmtFloats(vs []float64, digits int) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = fmt.Sprintf("%.*f", digits, v)
	}
	return out
}
