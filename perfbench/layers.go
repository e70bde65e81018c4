package main

import (
	"repro/internal/catalog"
	"repro/internal/pxml"
)

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	return sum(vs) / float64(len(vs))
}

func sum(vs []float64) float64 {
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return s
}

func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerRun is what the traced run's passes measured.
type layerRun struct {
	// server, core and layer are the traced passes' spans.
	server, core, layer spanStats
	srv, plain          *serverPass
	cp                  *corePass
	lp                  *layerPass
	late                []float64
	primaryStats        catalog.DBStats
	snapshotBytes       int64
	ingests             int
	start, end          *pxml.Tree
}

// report turns the spans and counters into the per-layer metrics. Times
// are medians unless named .p99. Self times of the server and core
// layers are per request: the layer's call less the next layer's calls
// for the same request in the next pass (see traced.go).
func (l *layerRun) report(rep *Report) {
	sv, co, ly := l.server, l.core, l.layer
	usOf := func(name string, vs []float64) { rep.metric(name, median(vs), "us") }
	msOf := func(name string, vs []float64) { rep.metric(name, median(vs)/1000, "ms") }

	usOf("server.query.self_us", selfOver(sv.reqSelf["server.query"], co.reqSelf["core.query"]))
	msOf("server.integrate.self_ms", selfOver(sv.reqSelf["server.integrate"],
		co.reqSelf["xmlcodec.decode"], co.reqSelf["core.integrate"]))
	rep.metric("server.query.resp_bytes", mean(l.srv.respBytes), "bytes")

	usOf("core.query.self_us", selfOver(co.reqSelf["core.query"],
		ly.reqSelf["query.compile"], ly.reqDur["query.resultcache"]))
	msOf("core.integrate.self_ms", selfOver(co.reqSelf["core.integrate"],
		ly.reqSelf["integrate.integrate"], ly.reqSelf["pxml.normalize"], ly.reqSelf["queryindex.build"]))
	rep.metric("core.query.cache_hit_frac", frac(float64(l.cp.cacheHit), float64(l.cp.reads)), "ratio")

	c := &l.lp.counts
	usOf("query.compile_us", ly.dur["query.compile"])
	qs := l.lp.qc.Stats()
	rep.metric("query.compile_cache.hit_frac", frac(float64(qs.Hits), float64(qs.Hits+qs.Misses)), "ratio")
	ev := summarize(ly.dur["query.eval"])
	rep.metric("query.eval_us.p50", ev.P50, "us")
	rep.metric("query.eval_us.p99", ev.Tail, "us")
	rep.metric("query.node_visits", mean(c.nodeVisits), "count")
	rep.metric("query.plan.exact_frac", frac(float64(c.exact), float64(c.evals)), "ratio")
	rep.metric("query.plan.sample_frac", frac(float64(c.sample), float64(c.evals)), "ratio")
	rep.metric("query.plan.empty_by_index_frac", frac(float64(c.emptyByIndex), float64(c.evals)), "ratio")
	rep.metric("query.plan.pruned_frac_mean", frac(c.prunedSum, float64(c.evals)), "ratio")
	rep.metric("query.exec.inline_frac", frac(float64(c.inline), float64(c.inline+c.pooled)), "ratio")
	usOf("query.resultcache.get_us", ly.self["query.resultcache"])
	rs := l.lp.rc.Stats()
	rep.metric("query.resultcache.hit_frac", frac(float64(rs.Hits), float64(rs.Hits+rs.Misses)), "ratio")

	msOf("queryindex.build_ms", ly.dur["queryindex.build"])
	msOf("xmlcodec.decode_ms", co.dur["xmlcodec.decode"])

	msOf("integrate.self_ms", ly.self["integrate.integrate"])
	msOf("oracle.rule_ms", ly.reqSums("oracle.rule"))
	rep.metric("integrate.oracle_calls", mean(c.oracleCalls), "count")
	rep.metric("integrate.memo_hit_frac", frac(sum(c.memoHits), sum(c.memoHits)+sum(c.oracleCalls)), "ratio")
	rep.metric("integrate.spliced_frac", mean(c.spliced), "ratio")
	rep.metric("integrate.matchings", mean(c.matchings), "count")
	rep.metric("integrate.undecided_pairs", mean(c.undec), "count")

	msOf("pxml.normalize_ms", ly.dur["pxml.normalize"])
	rep.metric("pxml.doc_nodes.start", float64(l.start.NodeCount()), "count")
	rep.metric("pxml.doc_nodes.end", float64(l.end.NodeCount()), "count")
	rep.metric("pxml.doc_worlds_log10.start", log10Big(l.start.WorldCount().String()), "log10")
	rep.metric("pxml.doc_worlds_log10.end", log10Big(l.end.WorldCount().String()), "log10")

	wal := summarize(sv.dur["catalog.wal_append"])
	rep.metric("catalog.wal_append_ms.p50", wal.P50/1000, "ms")
	rep.metric("catalog.wal_append_ms.p99", wal.Tail/1000, "ms")
	ws := l.primaryStats.WAL
	rep.metric("catalog.wal_bytes_per_op", frac(float64(ws.AppendedBytes), float64(ws.Appends)), "bytes")
	rep.metric("catalog.compactions_per_100_ops", 100*frac(float64(l.primaryStats.Compactions), float64(l.ingests)), "count")
	msOf("catalog.open_ms", sv.dur["catalog.open"])

	msOf("store.load_ms", ly.dur["store.load"])
	msOf("store.save_ms", ly.dur["store.save"])
	rep.metric("store.snapshot_bytes", float64(l.snapshotBytes), "bytes")

	usOf("replica.read_us", sv.dur["replica.read"])
	usOf("replica.encode_us", sv.dur["replica.encode"])
	rep.metric("replica.wire_bytes_per_op", frac(float64(l.srv.wireBytes), float64(l.ingests)), "bytes")
	usOf("replica.decode_us", sv.dur["replica.decode"])
	msOf("replica.apply_ms", sv.dur["replica.apply"])

	rep.metric("bench.gen_late_p99_ms", summarize(l.late).Tail, "ms")
	traced, plain := l.srv.totals, l.plain.totals
	all := func(t map[string][]float64) float64 { return sum(t["server.query"]) + sum(t["server.integrate"]) }
	rep.metric("bench.trace_overhead_frac", frac(all(traced), all(plain))-1, "ratio")
	rep.note("per-request totals through the server, traced vs untraced pass: query p50 %.4f vs %.4f us, ingest p50 %.4f vs %.4f ms",
		median(traced["server.query"]), median(plain["server.query"]),
		median(traced["server.integrate"])/1000, median(plain["server.integrate"])/1000)
	rep.note("result-cache hits on the script's reads: core pass %d of %d, layer pass %d of %d",
		l.cp.cacheHit, l.cp.reads, c.hits, c.reads)
}
