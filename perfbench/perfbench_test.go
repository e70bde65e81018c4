package main

import (
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{n: 100000, want: 99, ok: true}, // capped at the requested p99
		{n: 1000, want: 99, ok: true},   // exactly ten beyond
		{n: 500, want: 98, ok: true},
		{n: 200, want: 95, ok: true},
		{n: 20, want: 50, ok: true},
		{n: 19, ok: false},
		{n: 0, ok: false},
	} {
		got, ok := tailPercentile(tc.n, 99)
		if ok != tc.ok || (ok && math.Abs(got-tc.want) > 1e-9) {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
		if ok {
			beyond := tc.n - int(math.Ceil(got/100*float64(tc.n)))
			if beyond < minBeyond {
				t.Errorf("n=%d: p%v leaves %d samples beyond, want >= %d", tc.n, got, beyond, minBeyond)
			}
		}
	}
}

func TestSummarizeReportsSampleCountAndNearestRank(t *testing.T) {
	var vs []float64
	for i := 1000; i >= 1; i-- {
		vs = append(vs, float64(i))
	}
	d := summarize(vs)
	if d.N != 1000 || d.P50 != 500 || d.TailPct != 99 || d.Tail != 990 {
		t.Fatalf("summarize = %+v, want N=1000 P50=500 p99=990", d)
	}
	if vs[0] != 1000 {
		t.Fatal("summarize reordered its input")
	}
	small := summarize([]float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30})
	if small.N != 30 || small.TailPct >= 99 || small.Tail != 20 {
		t.Fatalf("30 samples: %+v, want the p66.7 tail (20) with ten beyond", small)
	}
}

func TestOpenLoopTimesRequestsFromTheirDueTime(t *testing.T) {
	const stall = 60 * time.Millisecond
	// 100/s: request i is due at i*10ms. Request 0 stalls the only
	// worker, so requests 1-5 are sent late and must be charged the
	// wait since they were due, not just their own service time.
	res := runOpenLoop(context.Background(), 100, 200*time.Millisecond, 1, func(i int) error {
		if i == 0 {
			time.Sleep(stall)
		}
		return nil
	})
	if res.Attempted != 20 || len(res.Latencies) != 20 || res.Failed != 0 {
		t.Fatalf("attempted %d (latencies %d, failed %d), want 20", res.Attempted, len(res.Latencies), res.Failed)
	}
	if res.Latencies[0] < ms(stall) {
		t.Errorf("request 0 latency %.2f ms, want >= %.0f", res.Latencies[0], ms(stall))
	}
	for i := 1; i <= 4; i++ {
		queued := ms(stall) - float64(i*10)
		if res.Latencies[i] < queued-1 || res.Lateness[i] < queued-1 {
			t.Errorf("request %d: latency %.2f ms, late %.2f ms; want both >= %.0f (queued behind the stall)",
				i, res.Latencies[i], res.Lateness[i], queued)
		}
	}
	// Well after the stall the generator is back on schedule.
	if res.Lateness[19] > 5 {
		t.Errorf("request 19 sent %.2f ms late, want on time", res.Lateness[19])
	}
	if worst := percentile(sortedCopy(res.Lateness), 100); worst < 30 {
		t.Errorf("generator lateness peaks at %.2f ms; it does not show the stall", worst)
	}
}

func TestOpenLoopStopsWhenContextEnds(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var sent atomic.Int64
	res := runOpenLoop(ctx, 1000, time.Hour, 2, func(int) error {
		if sent.Add(1) == 50 {
			cancel()
		}
		return nil
	})
	if res.Attempted < 50 || res.Attempted > 52 || len(res.Latencies) != res.Attempted {
		t.Fatalf("attempted %d with %d latencies; want about 50, one each", res.Attempted, len(res.Latencies))
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		{ID: 1, Name: "server", Start: 0, End: 100 * ms},
		// Two overlapping children cover [10,60): 50ms.
		{ID: 2, Parent: 1, Name: "core", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "other", Start: 30 * ms, End: 60 * ms},
		// A grandchild counts against its own parent only.
		{ID: 4, Parent: 2, Name: "eval", Start: 15 * ms, End: 20 * ms},
		// A child running past its parent is clipped to the parent.
		{ID: 5, Parent: 4, Name: "late", Start: 18 * ms, End: 90 * ms},
	}
	self := SelfTimes(spans)
	want := map[int64]time.Duration{1: 50 * ms, 2: 25 * ms, 3: 30 * ms, 4: 3 * ms, 5: 72 * ms}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self(%d) = %v, want %v", id, self[id], w)
		}
	}
}

func TestTracerRecordsNestedSpans(t *testing.T) {
	tr := newTracer()
	root := tr.Begin("server.query", 7, 0)
	child := tr.Begin("core.query", 7, root)
	time.Sleep(2 * time.Millisecond)
	tr.End(child)
	tr.End(root)
	st := aggregate(tr.Spans())
	if len(st.dur["server.query"]) != 1 || len(st.dur["core.query"]) != 1 {
		t.Fatalf("spans by name: %v", st.dur)
	}
	if st.self["server.query"][0] >= st.dur["core.query"][0] {
		t.Errorf("server self %.1fus not below the child's %.1fus", st.self["server.query"][0], st.dur["core.query"][0])
	}
	var nilTracer *Tracer
	if id := nilTracer.Begin("x", 1, 0); id != 0 {
		t.Errorf("nil tracer returned span %d", id)
	}
	nilTracer.End(0)
}

func TestSelfOverSubtractsTheNextLayerPerRequest(t *testing.T) {
	upper := map[int64]float64{1: 100, 2: 50}
	compile := map[int64]float64{1: 10, 2: 5}
	cache := map[int64]float64{1: 60} // request 2 made no such call
	got := selfOver(upper, compile, cache)
	sort.Float64s(got)
	if len(got) != 2 || got[0] != 30 || got[1] != 45 {
		t.Fatalf("selfOver = %v, want [30 45]", got)
	}
}

func TestRefusedAndFailedRequestsCountAsFailed(t *testing.T) {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch n.Add(1) % 3 {
		case 0:
			w.WriteHeader(http.StatusTooManyRequests)
		case 1:
			w.WriteHeader(http.StatusRequestTimeout)
		default:
			w.Write([]byte(`{"ok":true}`))
		}
	}))
	defer srv.Close()
	c := newClient(2)
	defer c.close()
	closed := runClosedLoop(context.Background(), 100*time.Millisecond, 2, func(_, _ int) error {
		_, err := c.do(context.Background(), http.MethodGet, srv.URL, nil)
		return err
	})
	if closed.Attempted == 0 || closed.Failed+closed.Completed != closed.Attempted {
		t.Fatalf("closed loop: attempted %d, failed %d, completed %d", closed.Attempted, closed.Failed, closed.Completed)
	}
	if f := closed.FailedFrac(); f < 0.5 || f > 0.8 {
		t.Errorf("failed_frac %.3f, want about 2/3 (429 and 408 are failures)", f)
	}

	open := runOpenLoop(context.Background(), 1000, 20*time.Millisecond, 1, func(i int) error {
		if i%2 == 1 {
			return errors.New("transport error")
		}
		return nil
	})
	if open.Failed != open.Attempted/2 || open.FailedFrac() != 0.5 {
		t.Fatalf("open loop: %d of %d failed", open.Failed, open.Attempted)
	}
	if !math.IsInf(open.Latencies[1], 1) {
		t.Errorf("a failed request's latency is %v, want +Inf so it misses every limit", open.Latencies[1])
	}
	var total Tally
	total.add(open.Tally)
	total.add(closed.Tally)
	if total.Attempted != open.Attempted+closed.Attempted || total.Failed != open.Failed+closed.Failed {
		t.Errorf("tally sum %+v", total)
	}
}

func TestCapacityIsTheMedianSegment(t *testing.T) {
	var phases []ClosedLoopResult
	for i := 0; i < 5; i++ {
		phases = append(phases, ClosedLoopResult{Completed: 100, Elapsed: time.Second})
	}
	phases[0].Completed = 0 // one disturbed segment
	phases[1].Elapsed = 4 * time.Second
	if got := capacity(phases); got != 100 {
		t.Fatalf("capacity = %v, want 100", got)
	}
}

func TestAnyFailedReadFailsTheGate(t *testing.T) {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1)%10 == 0 {
			w.WriteHeader(http.StatusRequestTimeout) // a budget abort
			return
		}
		w.Write([]byte(`{"answers":[]}`))
	}))
	defer srv.Close()
	r := &runner{client: newClient(1), rep: &Report{}, primary: &Server{URL: srv.URL}}
	defer r.client.close()
	read := r.readOp([]string{"//movie/title"}, nil)
	for i := 0; i < 9; i++ {
		if err := read(0); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
	r.checkReads()
	if len(r.rep.Problems) != 0 {
		t.Fatalf("healthy reads failed the gate: %v", r.rep.Problems)
	}
	if err := read(0); err == nil {
		t.Fatal("the 408 read did not fail")
	}
	r.checkReads()
	if len(r.rep.Problems) != 1 {
		t.Fatalf("one failed read in ten left problems %v, want one", r.rep.Problems)
	}
}

func TestInputsAreDeterministic(t *testing.T) {
	a, b := GenerateInputs(3), GenerateInputs(3)
	if len(a.Hot) != hotQueries || len(a.Cold) != coldQueries {
		t.Fatalf("query sets %d/%d", len(a.Hot), len(a.Cold))
	}
	for i := range a.Hot {
		if a.Hot[i] != b.Hot[i] {
			t.Fatalf("hot query %d differs: %q vs %q", i, a.Hot[i], b.Hot[i])
		}
	}
	for i := 0; i < 5; i++ {
		sa, sb := a.Stream.Next(), b.Stream.Next()
		if sa.XML != sb.XML || sa.Kinds != sb.Kinds {
			t.Fatalf("stream source %d differs", i)
		}
		if sa.Kinds != [numKinds]int{recIdentical, recVariant, recNew} {
			t.Fatalf("source %d kinds %v", i, sa.Kinds)
		}
	}
	if GenerateInputs(4).Hot[0] == a.Hot[0] && GenerateInputs(4).Cold[0] == a.Cold[0] {
		t.Error("another seed gave the same queries")
	}
}
