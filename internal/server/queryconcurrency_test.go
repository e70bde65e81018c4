package server_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/server"
)

// TestQueryBudgetParameter: budget_ms values that are not a
// non-negative millisecond count fitting a time.Duration are 400s, not
// silently wrapped budgets.
func TestQueryBudgetParameter(t *testing.T) {
	ts, _ := newTestServer(t)
	integrateB(t, ts)
	q := "&q=" + url.QueryEscape(`//person/tel`)
	var resp server.QueryResponse
	doJSON(t, "GET", ts.URL+"/query?budget_ms=60000"+q, "", nil, http.StatusOK, &resp)
	if len(resp.Answers) != 2 {
		t.Fatalf("budget_ms=60000: answers = %+v, want 2", resp.Answers)
	}
	for _, v := range []string{"-1", "x", "18446744073710", "9223372036855"} {
		doJSON(t, "GET", ts.URL+"/query?budget_ms="+v+q, "", nil, http.StatusBadRequest, nil)
	}
}

// TestQueryUnknownParameterIgnored: parameters the query route does not
// know, such as workers=, change nothing.
func TestQueryUnknownParameterIgnored(t *testing.T) {
	ts, _ := newTestServer(t)
	integrateB(t, ts)
	var resp server.QueryResponse
	doJSON(t, "GET", ts.URL+"/query?workers=-1&q="+url.QueryEscape(`//person/tel`), "", nil, http.StatusOK, &resp)
	if len(resp.Answers) != 2 {
		t.Fatalf("answers = %+v, want 2", resp.Answers)
	}
}

// TestQueryClientDisconnect: a request whose context is already canceled
// (the client hung up) aborts with the 499 nginx convention and is counted
// in the /stats query section.
func TestQueryClientDisconnect(t *testing.T) {
	db, err := core.OpenXML(strings.NewReader(bookA), core.Config{Schema: personDTD})
	if err != nil {
		t.Fatalf("OpenXML: %v", err)
	}
	h := server.New(db, server.Options{}).Handler()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("GET", "/query?q="+url.QueryEscape(`//person/tel`), nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != 499 {
		t.Fatalf("status = %d, want 499; body %s", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("stats status = %d", rec.Code)
	}
	var stats server.StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatalf("bad stats JSON %q: %v", rec.Body.String(), err)
	}
	if stats.Query.Canceled < 1 {
		t.Fatalf("stats.query = %+v, want canceled >= 1", stats.Query)
	}
	if stats.Query.Started < 1 {
		t.Fatalf("stats.query = %+v, want started >= 1", stats.Query)
	}
}

// TestStatsQuerySection: /stats reports the query-concurrency counters
// after a cold evaluation plus repeats (cache hits leave started growing).
func TestStatsQuerySection(t *testing.T) {
	ts, _ := newTestServer(t)
	integrateB(t, ts)
	for i := 0; i < 3; i++ {
		doJSON(t, "GET", ts.URL+"/query?q="+url.QueryEscape(`//person/tel`), "", nil, http.StatusOK, nil)
	}
	var stats server.StatsResponse
	doJSON(t, "GET", ts.URL+"/stats", "", nil, http.StatusOK, &stats)
	if stats.Query.Started < 3 {
		t.Fatalf("query.started = %d, want >= 3", stats.Query.Started)
	}
	if stats.Query.Active != 0 {
		t.Fatalf("query.active = %d, want 0", stats.Query.Active)
	}
}
