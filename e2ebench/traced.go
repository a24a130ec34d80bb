package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"dex/internal/core"
	"dex/internal/server"
	"dex/internal/sqlparse"
	"dex/internal/storage"
	"dex/internal/trace"
)

// The traced run splits the client-observed time of each workload into
// layers from outside the program: a round-tripper wrapper times each
// HTTP attempt to its response headers and through its body, the server
// reports its engine time and (with trace:true) its admission span, and
// after the phase the workload's distinct statements are replayed through
// each layer's public entry point (sqlparse.Parse, Engine.ExecuteContext,
// Coordinator.Execute) and the benchmark's own json.Marshal. Spans stay
// in memory until the end and are then written to one file.

// span is one benchmark-side timing. Spans of one request or one replayed
// statement share a trace id; a root span has parent 0.
type span struct {
	ID     int64          `json:"id"`
	Parent int64          `json:"parent"`
	Trace  int64          `json:"trace"`
	Name   string         `json:"name"`
	Start  time.Time      `json:"start"`
	End    time.Time      `json:"end"`
	Attrs  map[string]any `json:"attrs,omitempty"`
	parent *span
}

func (s *span) dur() time.Duration { return s.End.Sub(s.Start) }

// attempt is one HTTP round trip of a logical request.
type attempt struct {
	start, headers, body time.Time
	bytes                int
}

type clockKey struct{}

// roundTimer reads each traced response's body eagerly, so time to first
// byte, body transfer and the client's JSON decode are separable.
type roundTimer struct{ base http.RoundTripper }

func (rt roundTimer) RoundTrip(req *http.Request) (*http.Response, error) {
	atts, _ := req.Context().Value(clockKey{}).(*[]attempt)
	if atts == nil {
		return rt.base.RoundTrip(req)
	}
	a := attempt{start: time.Now()}
	resp, err := rt.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	a.headers = time.Now()
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	a.body = time.Now()
	a.bytes = len(body)
	*atts = append(*atts, a)
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}

// tracedReq is what one traced request contributes to the layer metrics.
type tracedReq struct {
	sql      string
	answered bool
	cached   bool
	// spans: the request root and its client-side children.
	root *span
	// Figures the server reported in the response.
	engine    time.Duration // elapsed_ms
	admission time.Duration // the admission span of trace:true
	batches   int64         // the online span's batches attribute
}

// tracer records the spans of the traced phase.
type tracer struct {
	http *http.Client

	mu    sync.Mutex
	spans []*span
	reqs  []tracedReq
	ids   int64
}

func newTracer(base http.RoundTripper) *tracer {
	return &tracer{http: &http.Client{Transport: roundTimer{base: base}}}
}

func (t *tracer) newSpan(traceID int64, parent *span, name string, start, end time.Time) *span {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ids++
	s := &span{ID: t.ids, Trace: traceID, Name: name, Start: start, End: end, parent: parent}
	if parent != nil {
		s.Parent = parent.ID
	}
	t.spans = append(t.spans, s)
	return s
}

func (t *tracer) newTrace() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ids++
	return t.ids
}

// query sends one traced request and records its spans: request (root),
// then http.ttfb and http.body per attempt, then client.decode.
func (t *tracer) query(ctx context.Context, cl *server.Client, sid string, req server.QueryRequest) (*server.QueryResult, time.Duration, error) {
	var atts []attempt
	ctx = context.WithValue(ctx, clockKey{}, &atts)
	start := time.Now()
	res, err := cl.Query(ctx, sid, req)
	end := time.Now()

	id := t.newTrace()
	root := t.newSpan(id, nil, "request", start, end)
	root.Attrs = map[string]any{"sql": req.SQL}
	for _, a := range atts {
		t.newSpan(id, root, "http.ttfb", a.start, a.headers)
		b := t.newSpan(id, root, "http.body", a.headers, a.body)
		b.Attrs = map[string]any{"bytes": a.bytes}
	}
	if len(atts) > 0 {
		t.newSpan(id, root, "client.decode", atts[len(atts)-1].body, end)
	}
	tr := tracedReq{sql: req.SQL, root: root}
	if err == nil {
		tr.answered = true
		tr.cached = res.Cached
		tr.engine = time.Duration(res.ElapsedMS * float64(time.Millisecond))
		if sp := findSpan(res.Trace, "admission"); sp != nil {
			tr.admission = time.Duration(sp.DurationMS * float64(time.Millisecond))
		}
		if sp := findSpan(res.Trace, "online"); sp != nil {
			if b, ok := sp.Attrs["batches"].(float64); ok {
				tr.batches = int64(b)
			}
		}
		root.Attrs["engine_ms"] = res.ElapsedMS
		root.Attrs["cached"] = res.Cached
		res.Trace = nil // the span tree is not part of the answer
	}
	t.mu.Lock()
	t.reqs = append(t.reqs, tr)
	t.mu.Unlock()
	return res, end.Sub(start), err
}

func findSpan(sp *trace.SpanJSON, name string) *trace.SpanJSON {
	if sp == nil {
		return nil
	}
	if sp.Name == name {
		return sp
	}
	for _, c := range sp.Children {
		if f := findSpan(c, name); f != nil {
			return f
		}
	}
	return nil
}

// selfTimes returns each span's duration minus the part of it its
// children cover.
func selfTimes(spans []*span) map[*span]time.Duration {
	kids := map[*span][]*span{}
	for _, s := range spans {
		if s.parent != nil {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	out := make(map[*span]time.Duration, len(spans))
	for _, s := range spans {
		cs := append([]*span(nil), kids[s]...)
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start.Before(cs[j].Start) })
		var covered time.Duration
		cur := s.Start
		for _, c := range cs {
			lo, hi := c.Start, c.End
			if lo.Before(cur) {
				lo = cur
			}
			if hi.After(s.End) {
				hi = s.End
			}
			if hi.After(lo) {
				covered += hi.Sub(lo)
				cur = hi
			}
		}
		out[s] = s.dur() - covered
	}
	return out
}

// replayed is one distinct statement's direct layer timings.
type replayed struct {
	parse, exact, online, shard, marshal time.Duration
}

// replayBudget bounds the replay: statements are replayed in order of
// first appearance until it is spent.
const replayBudget = 4 * time.Second

// replay times each distinct answered statement of the traced phase
// through the layers the workload uses, sequentially, with the same
// timeout the clients send. Exact mode runs on the engine for every
// workload (on the fleet it is the single-node baseline of shard.tax).
func (t *tracer) replay(sys *system, w workload) map[string]replayed {
	out := map[string]replayed{}
	begin := time.Now()
	for _, r := range t.reqs {
		if time.Since(begin) > replayBudget {
			break
		}
		if !r.answered || r.cached {
			continue
		}
		if _, done := out[r.sql]; done {
			continue
		}
		id := t.newTrace()
		root := t.newSpan(id, nil, "replay", time.Now(), time.Time{})
		root.Attrs = map[string]any{"sql": r.sql}
		var rp replayed
		t0 := time.Now()
		stmt, err := sqlparse.Parse(r.sql)
		rp.parse = time.Since(t0)
		t.newSpan(id, root, "sqlparse.parse", t0, t0.Add(rp.parse))
		if err != nil {
			continue
		}
		direct := func(name string, run func(ctx context.Context) (*storage.Table, error)) (time.Duration, *storage.Table) {
			ctx, cancel := context.WithTimeout(context.Background(), w.serverTimeout())
			defer cancel()
			t0 := time.Now()
			res, err := run(ctx)
			d := time.Since(t0)
			sp := t.newSpan(id, root, name, t0, t0.Add(d))
			if err != nil {
				sp.Attrs = map[string]any{"error": err.Error()}
				return d, nil
			}
			return d, res
		}
		// answer is the workload's own path's answer when that path
		// answered within the deadline, else the exact one; an online
		// replay cut at the deadline still has the exact answer's shape.
		var answer, other *storage.Table
		rp.exact, answer = direct("core.exact", func(ctx context.Context) (*storage.Table, error) {
			return sys.eng.ExecuteContext(ctx, stmt.Table, stmt.Query, core.Exact)
		})
		if w.mode == "online" {
			rp.online, other = direct("onlineagg.online", func(ctx context.Context) (*storage.Table, error) {
				return sys.eng.ExecuteContext(ctx, stmt.Table, stmt.Query, core.Online)
			})
		}
		if sys.fleet != nil {
			rp.shard, other = direct("shard.execute", func(ctx context.Context) (*storage.Table, error) {
				res, err := sys.fleet.Coord.Execute(ctx, stmt.Table, stmt.Query, core.Exact)
				return res.Table, err
			})
		}
		if other != nil {
			answer = other
		}
		if answer != nil {
			// Rendered and marshalled the way the server answers it.
			cols, rows := wireRows(answer)
			t0 := time.Now()
			if _, err := json.Marshal(server.QueryResult{Columns: cols, Rows: rows, Mode: w.mode}); err == nil {
				rp.marshal = time.Since(t0)
				t.newSpan(id, root, "json.marshal", t0, t0.Add(rp.marshal))
			}
		}
		root.End = time.Now()
		out[r.sql] = rp
	}
	return out
}

// writeSpans writes every span of the run as one JSON object per line.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// dist summarises one layer timing: p50 and p99 in the metric's unit and
// the share of the client-observed time of the same requests.
type dist struct {
	vals  []float64
	part  time.Duration
	whole time.Duration
}

func (d *dist) add(v time.Duration, unit time.Duration, whole time.Duration) {
	d.vals = append(d.vals, float64(v)/float64(unit))
	d.part += v
	d.whole += whole
}

func (d *dist) put(m map[string]metric, name, unit string) {
	p50, p99 := 0.0, 0.0
	if n := len(d.vals); n > 0 {
		sort.Float64s(d.vals)
		p50 = d.vals[int(math.Ceil(0.5*float64(n)))-1]
		p99 = d.vals[int(math.Ceil(0.99*float64(n)))-1]
	}
	share := 0.0
	if d.whole > 0 {
		share = float64(d.part) / float64(d.whole)
	}
	m[name+".p50"] = metric{p50, unit}
	m[name+".p99"] = metric{p99, unit}
	m[name+".share"] = metric{share, "ratio"}
}

// counters are the program's own counters read around the traced phase.
type counters struct {
	cache                 server.CacheStats
	rowsScanned, zoneSkip int64
	aggHits, aggFallbacks int64
	shardRPCs             int64
}

func readCounters(sys *system) (counters, error) {
	var c counters
	snap, err := sys.client(0).Stats(context.Background())
	if err != nil {
		return c, fmt.Errorf("read /admin/stats: %w", err)
	}
	c.cache = snap.Cache
	engines := []*core.Engine{sys.eng}
	if sys.fleet != nil {
		// On the fleet the workers' engines do the scanning.
		engines = engines[:0]
		for _, w := range sys.fleet.Workers {
			engines = append(engines, w.Engine())
		}
		for _, s := range sys.fleet.Coord.Snapshot().Shards {
			c.shardRPCs += s.Queries
		}
	}
	for _, e := range engines {
		c.rowsScanned += e.RowsScanned()
		c.zoneSkip += e.ZoneSkipped()
		c.aggHits += e.AggKernelHits()
		c.aggFallbacks += e.AggKernelFallbacks()
	}
	return c, nil
}

// runTraced measures the workload on one system untraced for a quarter
// of d, traced for half, and untraced again for the last quarter, so the
// untraced throughput that prices the tracing overhead brackets the
// traced phase as the result cache warms. It then replays the traced
// phase's statements through the layers and reports the per-layer
// metrics.
func runTraced(w workload, seed int64, d time.Duration, dir string) (result, error) {
	sys, _, phases, err := setUp(w, seed)
	if err != nil {
		return result{}, err
	}
	defer sys.close()
	col := newCollector(seed)
	drive := func(phase int, d time.Duration, tr *tracer) *phaseStats {
		return (&driver{sys: sys, w: w, seed: seed, phase: phase, keep: col.keep, tracer: tr}).run(d)
	}
	plain := drive(phaseTimed, d/4, nil)
	tr := newTracer(sys.transport)
	before, err := readCounters(sys)
	if err != nil {
		return result{}, err
	}
	traced := drive(phaseTraced, d/2, tr)
	after, err := readCounters(sys)
	if err != nil {
		return result{}, err
	}
	plain.add(drive(phaseTimedAfter, d/4, nil))
	reps := tr.replay(sys, w)

	all := &phaseStats{}
	all.add(plain)
	all.add(traced)
	rep, err := checkSample(sys, col.smp, all)
	if err != nil {
		return result{}, err
	}
	printAccounting(w, all, rep)
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
	if err := tr.writeSpans(path); err != nil {
		return result{}, fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("spans %d written to %s; %d statements replayed\n", len(tr.spans), path, len(reps))

	m := layerMetrics(tr, reps, traced, before, after)
	m["setup.generate_s"] = metric{phases.generate.Seconds(), "s"}
	m["setup.register_s"] = metric{phases.register.Seconds(), "s"}
	m["setup.fleet_s"] = metric{phases.fleet.Seconds(), "s"}
	m["trace.overhead"] = metric{
		(float64(traced.completed()) / traced.wall.Seconds()) / (float64(plain.completed()) / plain.wall.Seconds()),
		"ratio",
	}
	printMetrics(m)
	res := result{
		Correct:   rep.wrong == 0,
		Attempted: all.attempted(),
		Failed:    failed(all),
		Metrics:   map[string]metric{},
	}
	for _, name := range perLayerMetrics() {
		v, ok := m[name]
		if !ok {
			return result{}, fmt.Errorf("per-layer metric %s was not computed", name)
		}
		res.Metrics[name] = v
	}
	return res, nil
}

// layerMetrics derives the per-layer figures. Timings cover the answered
// requests of the traced phase; a replayed layer's time is attributed to
// every answered request that reached the engine with that statement, and
// its share is over the client time of those requests.
func layerMetrics(tr *tracer, reps map[string]replayed, st *phaseStats, before, after counters) map[string]metric {
	self := selfTimes(tr.spans)
	kids := map[*span][]*span{}
	for _, s := range tr.spans {
		if s.parent != nil {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	var ttfb, body, decode, size, engine, wire, admission dist
	var parse, exact, online, shardD, tax, marshal dist
	var batches, batchN int64
	for _, r := range tr.reqs {
		if !r.answered {
			continue
		}
		total := r.root.dur()
		var tf, bd, dc time.Duration
		var bytes int
		for _, k := range kids[r.root] {
			switch k.Name {
			case "http.ttfb":
				tf += self[k]
			case "http.body":
				bd += self[k]
				bytes += k.Attrs["bytes"].(int)
			case "client.decode":
				dc += self[k]
			}
		}
		ttfb.add(tf, time.Millisecond, total)
		body.add(bd, time.Millisecond, total)
		decode.add(dc, time.Millisecond, total)
		size.vals = append(size.vals, float64(bytes))
		engine.add(r.engine, time.Millisecond, total)
		wire.add(tf-r.engine, time.Millisecond, total)
		if r.cached {
			continue
		}
		admission.add(r.admission, time.Millisecond, total)
		if r.batches > 0 {
			batches += r.batches
			batchN++
		}
		rp, ok := reps[r.sql]
		if !ok {
			continue
		}
		parse.add(rp.parse, time.Microsecond, total)
		if rp.marshal > 0 {
			marshal.add(rp.marshal, time.Millisecond, total)
		}
		exact.add(rp.exact, time.Millisecond, total)
		if rp.online > 0 {
			online.add(rp.online, time.Millisecond, total)
		}
		if rp.shard > 0 {
			shardD.add(rp.shard, time.Millisecond, total)
			tax.add(rp.shard-rp.exact, time.Millisecond, total)
		}
	}
	m := map[string]metric{}
	ttfb.put(m, "client.ttfb_ms", "ms")
	body.put(m, "client.body_ms", "ms")
	decode.put(m, "client.decode_ms", "ms")
	size.put(m, "client.response_bytes", "B")
	delete(m, "client.response_bytes.share")
	engine.put(m, "server.engine_ms", "ms")
	wire.put(m, "server.wire_ms", "ms")
	marshal.put(m, "server.marshal_ms", "ms")
	admission.put(m, "server.admission_wait_ms", "ms")
	parse.put(m, "sqlparse.parse_us", "us")
	exact.put(m, "core.exact_ms", "ms")
	online.put(m, "onlineagg.online_ms", "ms")
	shardD.put(m, "shard.execute_ms", "ms")
	tax.put(m, "shard.tax_ms", "ms")

	ratio := func(num, den int64) float64 {
		if den <= 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	lookups := (after.cache.Hits + after.cache.Misses) - (before.cache.Hits + before.cache.Misses)
	m["cache.hit_rate"] = metric{ratio(after.cache.Hits-before.cache.Hits, lookups), "ratio"}
	m["cache.evictions"] = metric{float64(after.cache.Evictions - before.cache.Evictions), "count"}
	engineQueries := st.attempted() - st.cached
	m["exec.rows_scanned"] = metric{ratio(after.rowsScanned-before.rowsScanned, engineQueries), "count"}
	m["exec.zone_skipped"] = metric{ratio(after.zoneSkip-before.zoneSkip, engineQueries), "count"}
	hits := after.aggHits - before.aggHits
	m["exec.agg_kernel_hit_rate"] = metric{ratio(hits, hits+after.aggFallbacks-before.aggFallbacks), "ratio"}
	m["onlineagg.batches"] = metric{ratio(batches, batchN), "count"}
	m["shard.rpcs_per_query"] = metric{ratio(after.shardRPCs-before.shardRPCs, engineQueries), "count"}
	return m
}
