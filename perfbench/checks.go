package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/pxml"
	"repro/internal/query"
	"repro/internal/queryindex"
	"repro/internal/replica"
	"repro/internal/xmlcodec"
)

// answerLog keeps the first answer body served for each query and counts
// later bodies that differ from it.
type answerLog struct {
	mu         sync.Mutex
	first      map[int][]byte
	mismatches int
	example    int
}

func newAnswerLog() *answerLog { return &answerLog{first: map[int][]byte{}} }

func (l *answerLog) record(qi int, body []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	prev, ok := l.first[qi]
	if !ok {
		l.first[qi] = body
		return
	}
	if !bytes.Equal(prev, body) {
		if l.mismatches == 0 {
			l.example = qi
		}
		l.mismatches++
	}
}

func (l *answerLog) distinct() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.first)
}

// queryResponse is the GET /query body.
type queryResponse struct {
	Query   string        `json:"query"`
	Method  string        `json:"method"`
	Answers []queryAnswer `json:"answers"`
}

type queryAnswer struct {
	Value string  `json:"value"`
	P     float64 `json:"p"`
}

// checkAnswers is the read gate: every distinct query's served answers
// must be bit-identical to an in-process query.EvalIndexed over the same
// document with the server's default options, and where the plan is
// exact also equal the unplanned query.Eval within 1e-9.
func (r *runner) checkAnswers(log *answerLog, qs []string) error {
	if log.mismatches > 0 {
		r.rep.fail("%d answer bodies differed from the first served for the same query (e.g. %q)", log.mismatches, qs[log.example])
	}
	tree := r.env.Tree
	idx := queryindex.Build(tree)
	// The options `imprecise serve` gives every query by default.
	opts := r.env.coreConfig().Query
	keys := make([]int, 0, len(log.first))
	for qi := range log.first {
		keys = append(keys, qi)
	}
	sort.Ints(keys)
	exact := 0
	for _, qi := range keys {
		var got queryResponse
		if err := json.Unmarshal(log.first[qi], &got); err != nil {
			return fmt.Errorf("decoding answer to %q: %w", qs[qi], err)
		}
		q, err := query.Compile(qs[qi])
		if err != nil {
			return err
		}
		want, err := query.EvalIndexed(tree, q, opts, idx)
		if err != nil {
			return fmt.Errorf("in-process %q: %w", qs[qi], err)
		}
		if msg := sameAnswers(got, want); msg != "" {
			r.rep.fail("query %q: served answers differ from in-process EvalIndexed: %s", qs[qi], msg)
			continue
		}
		if want.Plan != nil && want.Plan.Method == query.MethodExact {
			exact++
			ref, err := query.Eval(tree, q, opts)
			if err != nil {
				return fmt.Errorf("in-process unplanned %q: %w", qs[qi], err)
			}
			if msg := closeAnswers(want, ref, 1e-9); msg != "" {
				r.rep.fail("query %q: planned exact answers differ from unplanned Eval: %s", qs[qi], msg)
			}
		}
	}
	r.rep.note("answer gate: %d distinct queries compared bit-for-bit, %d exact plans also checked against unplanned Eval", len(keys), exact)
	return nil
}

func sameAnswers(got queryResponse, want query.Result) string {
	if got.Method != string(want.Method) {
		return fmt.Sprintf("method %s, want %s", got.Method, want.Method)
	}
	if len(got.Answers) != len(want.Answers) {
		return fmt.Sprintf("%d answers, want %d", len(got.Answers), len(want.Answers))
	}
	for i, a := range got.Answers {
		w := want.Answers[i]
		if a.Value != w.Value || math.Float64bits(a.P) != math.Float64bits(w.P) {
			return fmt.Sprintf("answer %d is %q %v, want %q %v", i, a.Value, a.P, w.Value, w.P)
		}
	}
	return ""
}

func closeAnswers(a, b query.Result, tol float64) string {
	if len(a.Answers) != len(b.Answers) {
		return fmt.Sprintf("%d answers vs %d", len(a.Answers), len(b.Answers))
	}
	for _, x := range a.Answers {
		if d := math.Abs(x.P - b.P(x.Value)); d > tol {
			return fmt.Sprintf("%q differs by %g", x.Value, d)
		}
	}
	return ""
}

// foldReference integrates sources into base through a non-durable
// core.Database with the servers' configuration.
func foldReference(env *Env, sources []Source) (*pxml.Tree, error) {
	db, err := core.Open(env.Tree, env.coreConfig())
	if err != nil {
		return nil, err
	}
	for i, src := range sources {
		if _, err := db.IntegrateXMLString(src.XML); err != nil {
			return nil, fmt.Errorf("reference fold, source %d: %w", i, err)
		}
	}
	return db.Tree(), nil
}

// checkFinalState is the write gate: the primary's document, the
// follower's document and an in-process fold of the acknowledged sources
// must be pxml.Equal, and the follower must report no divergence. The
// documents travel as GET /export XML, which drops trivial markers, so
// the fold is compared after the same encode and decode; the live trees
// are compared exactly through their replication digests.
func (r *runner) checkFinalState(ctx context.Context) error {
	if err := waitApplied(ctx, r.client, r.follower.URL, r.seq); err != nil {
		return err
	}
	ref, err := foldReference(r.env, r.acked)
	if err != nil {
		return err
	}
	refXML, err := xmlcodec.EncodeString(ref, xmlcodec.EncodeOptions{Indent: "  "})
	if err != nil {
		return err
	}
	want, err := xmlcodec.DecodeString(refXML)
	if err != nil {
		return err
	}
	wantDigest := replica.DigestString(ref)
	for _, s := range []struct {
		role, url, digestURL string
	}{
		{"primary", r.primary.URL, r.primary.URL + "/replication"},
		{"follower", r.follower.URL, fmt.Sprintf("%s/dbs/%s/wal?since=%d", r.follower.URL, dbName, r.seq)},
	} {
		body, err := r.client.do(ctx, http.MethodGet, s.url+"/dbs/"+dbName+"/export", nil)
		if err != nil {
			return err
		}
		got, err := xmlcodec.Decode(bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("decoding the %s's document: %w", s.role, err)
		}
		if !pxml.Equal(got.Root(), want.Root()) {
			r.rep.fail("the %s's document differs from the in-process fold of the %d acknowledged sources", s.role, len(r.acked))
		}
		var digest struct {
			Digest    string                    `json:"digest"`
			Databases []struct{ Digest string } `json:"databases"`
		}
		if err := r.client.getJSON(ctx, s.digestURL, &digest); err != nil {
			return err
		}
		if len(digest.Databases) > 0 {
			digest.Digest = digest.Databases[0].Digest
		}
		if digest.Digest != wantDigest {
			r.rep.fail("the %s's tree digest %s differs from the in-process fold's %s", s.role, digest.Digest, wantDigest)
		}
	}
	var st replicationStatus
	if err := r.client.getJSON(ctx, r.follower.URL+"/replication", &st); err != nil {
		return err
	}
	for _, d := range st.Databases {
		if d.Divergences != 0 {
			r.rep.fail("follower reports %d divergence(s) on %s", d.Divergences, d.Name)
		}
	}
	r.rep.note("document at start: %s", docNote(r.env.Tree))
	r.rep.note("document at end: %s", docNote(ref))
	return nil
}
