package main

import (
	"bytes"
	"compress/flate"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/integrate"
	"repro/internal/oracle"
	"repro/internal/pxml"
	"repro/internal/query"
	"repro/internal/queryindex"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/xmlcodec"
)

// Traced-run sizes: the read replay covers the start of the untraced
// run's open-loop phase (at most tracedMaxReads reads); ingests are
// counted.
const (
	tracedMaxReads     = 8000
	tracedProbeIngests = 24
	tracedMixedIngests = 40
)

// The traced run replays one script of requests through several passes,
// each on a fresh copy of the golden data directory and each at one layer
// boundary of the program:
//
//   - the server pass sends every request through the program's own
//     server.Handler().ServeHTTP over a catalog, once untraced and once
//     traced, and replicates every commit to a follower catalog;
//   - the core pass calls core.Database.QueryEvalCtx for reads and
//     xmlcodec.Decode plus core.Database.IntegrateTreeResult for ingests;
//   - the layer pass calls the query, integrate, pxml and queryindex
//     functions that core calls, in core's order.
//
// The passes run in lockstep: each request goes through every pass before
// the next one starts, in an order shuffled from request to request, so a
// slow spell of the host, and the warmth one pass leaves for the next,
// reach all passes alike. The script is
// sequential, so every pass sees the same documents and the same cache
// outcomes for the same request. A layer's self time for one request is
// then its own call's time minus the time the next pass spent in the next
// layer's calls for that request. Inside program code the only spans are
// those of the interfaces the benchmark can wrap: the oracle rules and
// the journal.

// event is one request of the script: a read of query, or an ingest of
// src. read numbers the reads for the open-loop schedule.
type event struct {
	query string
	src   *Source
	read  int
}

type tracedScript struct {
	events         []event
	rate           float64
	reads, ingests int
}

func (s *tracedScript) addRead(q string) {
	s.events = append(s.events, event{query: q, read: s.reads})
	s.reads++
}

func (s *tracedScript) addIngest(src Source) {
	s.events = append(s.events, event{src: &src})
	s.ingests++
}

// makeScript draws the untraced run's inputs: on the read workloads the
// first reads of the open-loop phase, then the ingest probe; on
// ingest_mixed the reader's reads with the writer's sources spread evenly
// among them.
func makeScript(workload string, seconds int, in *Inputs) tracedScript {
	var s tracedScript
	openPhase := time.Duration(seconds) * time.Second * openShare / 100
	switch workload {
	case "read_hot", "read_cold":
		qs, zipfian, rate := in.Hot, true, hotRate
		if workload == "read_cold" {
			qs, zipfian, rate = in.Cold, false, coldRate
		}
		pick := newPicker(in.Seed*7919+1, len(qs), zipfian)
		for i := 0; i < min(tracedMaxReads, int(rate*openPhase.Seconds())); i++ {
			s.addRead(qs[pick.next()])
		}
		s.rate = rate
		for i := 0; i < tracedProbeIngests; i++ {
			s.addIngest(in.Stream.Next())
		}
	case "ingest_mixed":
		pick := newPicker(in.Seed*7919+2, len(in.Hot), true)
		reads := int(mixedRate * openPhase.Seconds())
		every := max(1, reads/tracedMixedIngests)
		for i := 0; i < reads; i++ {
			if i%every == 0 && s.ingests < tracedMixedIngests {
				s.addIngest(in.Stream.Next())
			}
			s.addRead(in.Hot[pick.next()])
		}
		for s.ingests < tracedMixedIngests {
			s.addIngest(in.Stream.Next())
		}
		s.rate = mixedRate
	}
	return s
}

// pass is one layer boundary the script is replayed at; req numbers the
// request, the same in every pass.
type pass interface {
	read(ctx context.Context, req int64, q string) error
	ingest(req int64, src Source) error
}

type namedPass struct {
	name string
	pass
}

// replay runs the script through the passes in lockstep, sending reads
// on the open-loop schedule of the workload's rate, and returns how late
// each read was.
func (s tracedScript) replay(ctx context.Context, passes []namedPass) ([]float64, error) {
	var late []float64
	order := rand.New(rand.NewSource(int64(len(s.events))))
	start := time.Now()
	for i, e := range s.events {
		req := int64(i + 1)
		if e.src == nil {
			due := start.Add(time.Duration(float64(e.read) * float64(time.Second) / s.rate))
			if d := time.Until(due).Truncate(timerGranule); d > 0 {
				time.Sleep(d)
			}
			late = append(late, ms(max(0, time.Since(due))))
		}
		for _, k := range order.Perm(len(passes)) {
			p := passes[k]
			var err error
			if e.src != nil {
				err = p.ingest(req, *e.src)
			} else {
				err = p.read(ctx, req, e.query)
			}
			if err != nil {
				return nil, fmt.Errorf("%s pass, request %d: %w", p.name, req, err)
			}
		}
	}
	return late, nil
}

// seams are the program interfaces the benchmark wraps: the oracle rules,
// which the integrator calls from its own goroutines, and the journal.
// Their spans belong to the request and span last set with within.
type seams struct {
	tr          *Tracer
	req, parent atomic.Int64
}

func (s *seams) within(req, parent int64) {
	s.req.Store(req)
	s.parent.Store(parent)
}

// config is the servers' database configuration with every rule wrapped.
func (s *seams) config(env *Env) core.Config {
	cfg := env.coreConfig()
	for i, r := range cfg.Rules {
		cfg.Rules[i] = tracedRule{Rule: r, s: s}
	}
	return cfg
}

// tracedRule wraps an oracle.Rule with a span around every Apply.
type tracedRule struct {
	oracle.Rule
	s *seams
}

func (r tracedRule) Apply(a, b *pxml.Node) oracle.Verdict {
	id := r.s.tr.Begin("oracle.rule", r.s.req.Load(), r.s.parent.Load())
	v := r.Rule.Apply(a, b)
	r.s.tr.End(id)
	return v
}

// timedJournal wraps the catalog database's journal, through the public
// core.EpochJournal interface, with the catalog.wal_append span.
type timedJournal struct {
	core.EpochJournal
	s *seams
}

func (j timedJournal) Record(op core.Op) (uint64, error) {
	id := j.s.tr.Begin("catalog.wal_append", j.s.req.Load(), j.s.parent.Load())
	defer j.s.tr.End(id)
	return j.EpochJournal.Record(op)
}

// openCatalog opens a fresh copy of the golden directory as a catalog
// with the servers' options, its rules and journal wrapped by s.
func openCatalog(env *Env, name string, s *seams) (*catalog.Catalog, *catalog.DB, error) {
	dir := filepath.Join(env.Work, name)
	if err := copyDir(env.Golden, dir); err != nil {
		return nil, nil, err
	}
	id := s.tr.Begin("catalog.open", 0, 0)
	cat, err := catalog.Open(dir, catalog.Options{Config: s.config(env), RootTag: "catalog"})
	s.tr.End(id)
	if err != nil {
		return nil, nil, err
	}
	db, err := cat.Get(dbName)
	if err != nil {
		cat.Close()
		return nil, nil, err
	}
	c := db.Core()
	c.SetJournal(timedJournal{EpochJournal: db, s: s}, c.AppliedSeq())
	return cat, db, nil
}

// serverPass sends each request through the program's HTTP handler over
// a catalog, as `imprecise serve -data` does, then ships each commit to a
// follower catalog the way the server's binary /wal route and the
// replica's tailer do.
type serverPass struct {
	seams
	h                 http.Handler
	primary, follower *catalog.Catalog
	pdb, fdb          *catalog.DB
	start             *pxml.Tree
	// totals are µs per request by root span; respBytes the read
	// response sizes.
	totals    map[string][]float64
	respBytes []float64
	wireBytes int64
}

func newServerPass(env *Env, tr *Tracer, name string) (*serverPass, error) {
	p := &serverPass{seams: seams{tr: tr}, totals: map[string][]float64{}}
	var err error
	if p.primary, p.pdb, err = openCatalog(env, name+"-primary", &p.seams); err != nil {
		return nil, err
	}
	fdir := filepath.Join(env.Work, name+"-follower")
	if err = copyDir(env.Golden, fdir); err == nil {
		p.follower, err = catalog.Open(fdir, catalog.Options{Config: env.coreConfig(), RootTag: "catalog"})
	}
	if err == nil {
		p.fdb, err = p.follower.Get(dbName)
	}
	if err != nil {
		p.close()
		return nil, err
	}
	p.h = server.NewCatalog(p.primary, server.Options{}).Handler()
	p.start = p.pdb.Core().Tree()
	return p, nil
}

func (p *serverPass) close() {
	if p.follower != nil {
		p.follower.Close()
	}
	p.primary.Close()
}

// serve times one request through the handler under a root span.
func (p *serverPass) serve(req int64, span, method, target string, body io.Reader) (*httptest.ResponseRecorder, error) {
	r := httptest.NewRequest(method, target, body)
	w := httptest.NewRecorder()
	t0 := time.Now()
	id := p.tr.Begin(span, req, 0)
	p.within(req, id)
	p.h.ServeHTTP(w, r)
	p.tr.End(id)
	p.totals[span] = append(p.totals[span], us(time.Since(t0)))
	if w.Code != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", w.Code, firstLine(w.Body.Bytes()))
	}
	return w, nil
}

func (p *serverPass) read(_ context.Context, req int64, q string) error {
	w, err := p.serve(req, "server.query", http.MethodGet, queryURL("", q), nil)
	if err != nil {
		return err
	}
	p.respBytes = append(p.respBytes, float64(w.Body.Len()))
	return nil
}

func (p *serverPass) ingest(req int64, src Source) error {
	path := "/dbs/" + dbName + "/integrate"
	if _, err := p.serve(req, "server.integrate", http.MethodPost, path, strings.NewReader(src.XML)); err != nil {
		return err
	}
	return p.ship(req)
}

// ship replicates the primary's last commit: the primary reads its log
// and writes a flate binary page, the follower decodes and applies it.
func (p *serverPass) ship(req int64) error {
	tr := p.tr
	seq := p.pdb.LastSeq()
	root := tr.Begin("replica.ship", req, 0)
	defer tr.End(root)
	r := tr.Begin("replica.read", req, root)
	raws, prefix, err := p.pdb.RawOpsSince(seq-1, 0)
	tr.End(r)
	if err != nil {
		return err
	}
	page := replica.WALPage{Database: dbName, Since: seq - 1, LastSeq: seq,
		Digest: replica.DigestString(p.pdb.Core().Tree()), Epoch: p.pdb.Epoch()}
	e := tr.Begin("replica.encode", req, root)
	var buf bytes.Buffer
	fw, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err == nil {
		err = replica.EncodeRawWALPage(fw, &page, raws, prefix)
	}
	if err == nil {
		err = fw.Close()
	}
	tr.End(e)
	if err != nil {
		return err
	}
	p.wireBytes += int64(buf.Len())
	d := tr.Begin("replica.decode", req, root)
	got, err := replica.DecodeWALPageDeflate(&buf)
	tr.End(d)
	if err != nil {
		return err
	}
	a := tr.Begin("replica.apply", req, root)
	defer tr.End(a)
	for _, rec := range got.Records {
		if _, err := p.fdb.ApplyReplicated(rec); err != nil {
			return err
		}
	}
	return nil
}

// corePass calls the database's query and integrate entry points, with
// the options the server passes.
type corePass struct {
	seams
	cat             *catalog.Catalog
	db              *core.Database
	opts            query.Options
	reads, cacheHit int
}

func newCorePass(env *Env, tr *Tracer) (*corePass, error) {
	p := &corePass{seams: seams{tr: tr}}
	cat, db, err := openCatalog(env, "core", &p.seams)
	if err != nil {
		return nil, err
	}
	p.cat, p.db = cat, db.Core()
	p.opts = p.db.DefaultQueryOptions()
	return p, nil
}

func (p *corePass) read(ctx context.Context, req int64, q string) error {
	id := p.tr.Begin("core.query", req, 0)
	res, err := p.db.QueryEvalCtx(ctx, q, p.opts)
	p.tr.End(id)
	if err != nil {
		return err
	}
	p.reads++
	if res.Plan != nil && res.Plan.CacheHit {
		p.cacheHit++
	}
	return nil
}

func (p *corePass) ingest(req int64, src Source) error {
	d := p.tr.Begin("xmlcodec.decode", req, 0)
	other, err := xmlcodec.Decode(strings.NewReader(src.XML))
	p.tr.End(d)
	if err != nil {
		return err
	}
	id := p.tr.Begin("core.integrate", req, 0)
	p.within(req, id)
	_, _, err = p.db.IntegrateTreeResult(other)
	p.tr.End(id)
	return err
}

// layerPass calls, in core's order, the functions core calls: the
// compiled-query cache, the result cache and the planned evaluator for
// reads; the integrator, normalization and the index build for ingests.
// It starts from the golden snapshot and folds the write-ahead tail into
// it with its memo, as recovery does, so its caches and memo start where
// the catalog's do.
type layerPass struct {
	seams
	cfg    integrate.Config
	opts   query.Options
	qc     *query.Cache
	rc     *query.ResultCache
	tree   *pxml.Tree
	idx    *queryindex.Index
	counts layerCounters
}

// layerCounters are measured where the work happens.
type layerCounters struct {
	reads, hits, evals          int
	exact, sample, emptyByIndex int
	prunedSum                   float64
	nodeVisits                  []float64
	pooled, inline              int64
	oracleCalls, memoHits       []float64
	matchings, undec, spliced   []float64
}

func newLayerPass(env *Env, tr *Tracer, start *pxml.Tree, tail []Source) (*layerPass, error) {
	p := &layerPass{}
	// The fold of the tail is not traced: the tracer is set after it.
	cfg := p.config(env)
	p.cfg = cfg.Integration
	p.cfg.Oracle = oracle.New(cfg.Rules, cfg.OracleOptions...)
	p.cfg.Schema = cfg.Schema
	if cfg.MemoEntries >= 0 {
		p.cfg.Memo = integrate.NewMemo(cfg.MemoEntries)
	}
	p.opts = cfg.Query
	p.qc = query.NewCache(cfg.QueryCacheSize)
	p.rc = query.NewResultCache(cfg.ResultCacheSize)
	p.tree = start
	for i, src := range tail {
		other, err := xmlcodec.DecodeString(src.XML)
		if err != nil {
			return nil, err
		}
		if p.tree, _, err = integrate.Integrate(p.tree, other, p.cfg); err != nil {
			return nil, fmt.Errorf("layer pass, tail source %d: %w", i, err)
		}
	}
	if !pxml.Equal(p.tree.Root(), env.Tree.Root()) {
		return nil, fmt.Errorf("layer pass: the golden snapshot plus its tail differs from the golden document")
	}
	p.idx = queryindex.Build(p.tree)
	p.tr = tr
	return p, nil
}

func (p *layerPass) read(ctx context.Context, req int64, q string) error {
	tr := p.tr
	c := tr.Begin("query.compile", req, 0)
	cq, err := p.qc.Compile(q)
	tr.End(c)
	if err != nil {
		return err
	}
	tree, idx := p.tree, p.idx
	g := tr.Begin("query.resultcache", req, 0)
	res, outcome, err := p.rc.Do(ctx, p.rc.Generation(), idx.Digest(), cq.String(), p.opts, func() (query.Result, error) {
		e := tr.Begin("query.eval", req, g)
		defer tr.End(e)
		return query.EvalIndexedCtx(ctx, tree, cq, p.opts, idx)
	})
	tr.End(g)
	if err != nil {
		return err
	}
	lc := &p.counts
	lc.reads++
	if outcome != query.DoExecuted {
		lc.hits++
		return nil
	}
	lc.evals++
	if res.Plan != nil {
		switch {
		case res.Plan.EmptyByIndex:
			lc.emptyByIndex++
		case res.Plan.Method == query.MethodExact:
			lc.exact++
		case res.Plan.Method == query.MethodSample:
			lc.sample++
		}
		lc.prunedSum += res.Plan.PrunedFraction
	}
	lc.nodeVisits = append(lc.nodeVisits, float64(res.Exec.NodeVisits))
	lc.pooled += res.Exec.PooledTasks
	lc.inline += res.Exec.InlineTasks
	return nil
}

func (p *layerPass) ingest(req int64, src Source) error {
	tr := p.tr
	other, err := xmlcodec.DecodeString(src.XML)
	if err != nil {
		return err
	}
	cfg := p.cfg
	cfg.SkipNormalize = true
	ig := tr.Begin("integrate.integrate", req, 0)
	p.within(req, ig)
	raw, st, err := integrate.Integrate(p.tree, other, cfg)
	tr.End(ig)
	if err != nil {
		return err
	}
	n := tr.Begin("pxml.normalize", req, 0)
	res, err := raw.Normalize()
	tr.End(n)
	if err != nil {
		return err
	}
	b := tr.Begin("queryindex.build", req, 0)
	idx := queryindex.Build(res)
	tr.End(b)
	baseKids := 0
	if els := p.tree.RootElements(); len(els) == 1 {
		baseKids = len(pxml.ElementChildren(els[0]))
	}
	p.tree, p.idx = res, idx
	p.rc.Purge()
	lc := &p.counts
	lc.oracleCalls = append(lc.oracleCalls, float64(st.OracleCalls))
	lc.memoHits = append(lc.memoHits, float64(st.VerdictMemoHits))
	lc.matchings = append(lc.matchings, float64(st.MatchingsEnumerated))
	lc.undec = append(lc.undec, float64(st.UndecidedPairs))
	lc.spliced = append(lc.spliced, float64(st.SplicedChildren)/math.Max(1, float64(baseKids)))
	return nil
}

// runTraced is the -trace 1 run: the script through the server
// untraced and traced, through core and through the layers.
func runTraced(workload string, seconds int, in *Inputs, env *Env) (*Report, error) {
	ctx := context.Background()
	script := makeScript(workload, seconds, in)

	plain, err := newServerPass(env, nil, "plain")
	if err != nil {
		return nil, err
	}
	defer plain.close()
	srvTr := newTracer()
	srv, err := newServerPass(env, srvTr, "server")
	if err != nil {
		return nil, err
	}
	defer srv.close()
	coreTr := newTracer()
	cp, err := newCorePass(env, coreTr)
	if err != nil {
		return nil, err
	}
	defer cp.cat.Close()
	layerTr := newTracer()
	id := layerTr.Begin("store.load", 0, 0)
	snap, err := store.Load(filepath.Join(env.Golden, dbName, "state"))
	layerTr.End(id)
	if err != nil {
		return nil, err
	}
	lp, err := newLayerPass(env, layerTr, snap.Tree, in.Tail)
	if err != nil {
		return nil, err
	}

	late, err := script.replay(ctx, []namedPass{{"untraced server", plain}, {"server", srv}, {"core", cp}, {"layer", lp}})
	if err != nil {
		return nil, err
	}
	id = layerTr.Begin("store.save", 0, 0)
	_, err = store.Save(filepath.Join(env.Work, "layer-save"), lp.tree, env.Schema, "final")
	layerTr.End(id)
	if err != nil {
		return nil, err
	}

	rep := &Report{}
	rep.Attempted = len(script.events)
	end := srv.pdb.Core().Tree()
	for _, d := range []struct {
		name string
		tree *pxml.Tree
	}{{"follower's", srv.fdb.Core().Tree()}, {"core pass's", cp.db.Tree()}, {"layer pass's", lp.tree}} {
		if !pxml.Equal(d.tree.Root(), end.Root()) {
			rep.fail("the %s document differs from the server pass's", d.name)
		}
	}
	rep.Correct = len(rep.Problems) == 0
	lay := layerRun{
		server: aggregate(srvTr.Spans()), core: aggregate(coreTr.Spans()), layer: aggregate(layerTr.Spans()),
		srv: srv, plain: plain, cp: cp, lp: lp, late: late,
		primaryStats:  srv.pdb.Stats(),
		snapshotBytes: dirBytes(filepath.Join(env.Golden, dbName, "state")),
		ingests:       script.ingests, start: srv.start, end: end,
	}
	lay.report(rep)

	trFile := filepath.Join(filepath.Dir(env.Work), fmt.Sprintf("trace-%s-%d.jsonl", workload, in.Seed))
	if err := writeSpans(trFile, map[string]*Tracer{"server": srvTr, "core": coreTr, "layer": layerTr}); err != nil {
		return nil, err
	}
	rep.note("spans written to %s", trFile)
	rep.note("traced replay: %d reads at %.0f/s, %d ingests, GOMAXPROCS %d; passes in lockstep: server untraced, server traced, core, layers",
		script.reads, script.rate, script.ingests, runtime.GOMAXPROCS(0))
	return rep, nil
}

// writeSpans writes every pass's spans, one JSON object a line, each
// tagged with its pass.
func writeSpans(path string, passes map[string]*Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	for _, name := range []string{"server", "core", "layer"} {
		if err := passes[name].WriteJSONLines(f, name); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
