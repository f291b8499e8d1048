package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"example.com/scar"
	"example.com/scar/internal/config"
	"example.com/scar/internal/core"
	"example.com/scar/internal/costdb"
	"example.com/scar/internal/dataflow"
	"example.com/scar/internal/eval"
	"example.com/scar/internal/maestro"
	"example.com/scar/internal/online"
	"example.com/scar/internal/serve"
	"example.com/scar/internal/workload"
)

// span is one timed call into a layer. Spans of one request share req;
// parent is the enclosing span's id (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run writes them out. A nil
// tracer records nothing, so the untraced replay runs the same code.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// timed runs fn inside a span and returns the span's duration, measured
// the same way with or without a tracer.
func (t *tracer) timed(name string, parent, req int, fn func()) time.Duration {
	id := t.begin(name, parent, req)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	t.end(id)
	return d
}

// Span names: one per layer boundary the replay crosses.
const (
	spanRequest  = "request"
	spanParse    = "config.ParseWorkload"
	spanCompile  = "eval.Compile"
	spanCore     = "core.Scheduler.Schedule"
	spanWindow   = "eval.Compiled.WindowEval replay"
	spanMiss     = "serve.Service.Schedule miss"
	spanHit      = "serve.Service.Schedule hit"
	spanServe    = "serve.Handler.ServeHTTP hit"
	spanPost     = "http POST /schedule hit"
	spanSimulate = "serve.Service.Simulate"
	spanOnline   = "online.Simulate"
	spanFill     = "costdb cold fill"
	spanCost     = "costdb.DB.Cost warm"
	spanAnalyze  = "maestro.Analyze"
)

// layerMetrics names every per-layer metric with its unit and the
// end-to-end metric (and workload) it should move.
var layerMetrics = []struct{ name, unit, moves string }{
	{"serve.http.codec_us", "us", "serve_p50_ms, serve_max_rps on serve-mix"},
	{"serve.http.transport_us", "us", "bounds what codec work can save on serve_p50_ms"},
	{"serve.cache.hit_us", "us", "serve_p50_ms on serve-mix"},
	{"serve.cache.hit_ratio", "fraction", "serve_p99_ms on serve-mix"},
	{"serve.cache.searches", "count", "serve_p99_ms on serve-mix (must equal misses sent)"},
	{"serve.miss_overhead_ms", "ms", "miss_p50_ms on serve-mix"},
	{"serve.admission.rejects", "count", "success_rate on all workloads"},
	{"serve.simulate_overhead_ms", "ms", "simulate latency on serve-mix"},
	{"online.simulate_ms", "ms", "simulate latency on serve-mix"},
	{"online.sim_req_per_s", "1/s", "simulate latency on serve-mix"},
	{"config.parse_workload_us", "us", "miss_p50_ms on serve-mix"},
	{"core.schedule_ms", "ms", "search_geomean_ms on search-*, miss_p50_ms on serve-mix"},
	{"core.window_evals", "count", "search_s on search-*"},
	{"core.unique_windows", "count", "search_s on search-*"},
	{"core.candidates", "count", "search_s on search-*"},
	{"core.window_cache_hit_rate", "fraction", "search_s on search-*"},
	{"core.us_per_unique_window", "us", "search_s on search-*"},
	{"core.allocs_per_search", "count", "search_s, rss_mb on search-*"},
	{"core.alloc_mb_per_search", "MB", "search_s, rss_mb on search-*"},
	{"core.gc_cpu_frac", "fraction", "search_s on search-*"},
	{"core.slowest_candidate_ms", "ms", "search_s on search-*"},
	{"eval.compile_ms", "ms", "search_geomean_ms, miss_p50_ms, simulate latency"},
	{"eval.window_ns", "ns", "search_s on search-* (through eval.window_share)"},
	{"eval.window_share", "fraction", "upper bound of the search_s an evaluator speed-up can buy"},
	{"costdb.cold_fill_ms", "ms", "setup_s on all workloads"},
	{"costdb.misses", "count", "setup_s on all workloads"},
	{"costdb.hit_ns", "ns", "setup_s on all workloads"},
	{"maestro.analyze_us", "us", "setup_s on all workloads"},
	{"gen.late_p99_ms", "ms", "validity of a serve-mix run (not a program metric)"},
	{"gen.backlog_max", "count", "validity of a serve-mix run (not a program metric)"},
	{"trace.overhead_frac", "fraction", "tracing cost: traced over untraced replay, minus one"},
}

// layerPlan is what a traced run replays for one workload.
type layerPlan struct {
	opts     core.Options
	problems []problem // replayed layer by layer
	simulate []problem // the two classes of the /simulate replay
	// traffic runs a stretch of the workload's own traffic with tracing
	// on, sets the gen.* metrics, and returns the counters of the service
	// it reached — nil for library traffic, which reaches none (the
	// replay's service counters stand in).
	traffic func(r *run, tr *tracer, db *costdb.DB) (*serve.Stats, error)
}

// replayOut accumulates what the layer replay measures beyond spans.
type replayOut struct {
	evals, unique, cands int
	allocs, allocBytes   uint64
	gcCPU, totalCPU      float64
	slowestLap           time.Duration
	windowCalls          int
	simRequests          int
	svc                  *serve.Service
}

// traceLayers is the traced run shared by every workload: it replays the
// plan untraced and then traced (their wall-time ratio is the tracing
// overhead), runs the workload's own traffic with tracing on, and derives
// the per-layer metrics from the spans.
func traceLayers(r *run, plan layerPlan) error {
	wl, err := readMissWorkload(r.root)
	if err != nil {
		return err
	}
	missInput := missProblem(wl, "layers").workload

	tr := newTracer()
	fillID := tr.begin(spanFill, 0, 0)
	db := costdb.New(maestro.DefaultParams())
	if err := warmCostDB(db, append(append([]problem(nil), plan.problems...), plan.simulate...), plan.opts.Eval); err != nil {
		return err
	}
	tr.end(fillID)
	_, misses := db.Stats()

	costCalls, err := replayCostModel(tr, db, plan.problems)
	if err != nil {
		return err
	}

	// The first replay warms the heap and the caches of the process; the
	// second, untraced, is the baseline the traced one is compared with.
	var untraced time.Duration
	for i := 0; i < 2; i++ {
		t0 := time.Now()
		if _, err := replay(r, nil, db, plan, missInput); err != nil {
			return err
		}
		untraced = time.Since(t0)
	}
	t0 := time.Now()
	out, err := replay(r, tr, db, plan, missInput)
	if err != nil {
		return err
	}
	traced := time.Since(t0)

	ts, err := plan.traffic(r, tr, db)
	if err != nil {
		return err
	}
	st := out.svc.Stats()
	if ts != nil {
		st = *ts
	}

	by := spansByName(tr.spans)
	medUS := func(name string) float64 { return us(medianDur(by[name])) }
	perReq := func(a, b string) float64 { return ms(medianDur(diffByReq(by[a], by[b]))) }
	var coreMS []float64
	var coreTotal time.Duration
	for _, s := range by[spanCore] {
		coreMS = append(coreMS, ms(s.dur()))
		coreTotal += s.dur()
	}
	windowNS := float64(totalDur(by[spanWindow])) / float64(max(out.windowCalls, 1))
	nSearch := float64(len(by[spanCore]))

	r.set("serve.http.codec_us", medUS(spanServe)-medUS(spanHit), "us")
	r.set("serve.http.transport_us", medUS(spanPost)-medUS(spanServe), "us")
	r.set("serve.cache.hit_us", medUS(spanHit), "us")
	r.set("serve.cache.hit_ratio", float64(st.CacheHits)/float64(max(st.Requests, 1)), "fraction")
	r.set("serve.cache.searches", float64(st.ScheduleCalls), "count")
	r.set("serve.miss_overhead_ms", perReq(spanMiss, spanCore), "ms")
	r.set("serve.admission.rejects", float64(st.SaturatedRejects+st.DegradedAnswers+st.DrainRejects), "count")
	r.set("serve.simulate_overhead_ms", perReq(spanSimulate, spanOnline), "ms")
	r.set("online.simulate_ms", ms(medianDur(by[spanOnline])), "ms")
	r.set("online.sim_req_per_s", float64(out.simRequests)/totalDur(by[spanOnline]).Seconds(), "1/s")
	r.set("config.parse_workload_us", medUS(spanParse), "us")
	r.set("core.schedule_ms", geomean(coreMS), "ms")
	r.set("core.window_evals", float64(out.evals), "count")
	r.set("core.unique_windows", float64(out.unique), "count")
	r.set("core.candidates", float64(out.cands), "count")
	r.set("core.window_cache_hit_rate", 1-float64(out.unique)/float64(max(out.evals, 1)), "fraction")
	r.set("core.us_per_unique_window", us(coreTotal)/float64(max(out.unique, 1)), "us")
	r.set("core.allocs_per_search", float64(out.allocs)/nSearch, "count")
	r.set("core.alloc_mb_per_search", float64(out.allocBytes)/nSearch/1e6, "MB")
	r.set("core.gc_cpu_frac", out.gcCPU/max(out.totalCPU, 1e-12), "fraction")
	r.set("core.slowest_candidate_ms", ms(out.slowestLap), "ms")
	r.set("eval.compile_ms", ms(medianDur(by[spanCompile])), "ms")
	r.set("eval.window_ns", windowNS, "ns")
	r.set("eval.window_share", float64(out.unique)*windowNS/float64(coreTotal), "fraction")
	r.set("costdb.cold_fill_ms", ms(totalDur(by[spanFill])), "ms")
	r.set("costdb.misses", float64(misses), "count")
	r.set("costdb.hit_ns", float64(totalDur(by[spanCost]))/float64(costCalls), "ns")
	r.set("maestro.analyze_us", us(totalDur(by[spanAnalyze]))/float64(costCalls), "us")
	r.set("trace.overhead_frac", traced.Seconds()/untraced.Seconds()-1, "fraction")

	for _, m := range layerMetrics {
		v, ok := r.metrics[m.name]
		if !ok || v.Unit != m.unit {
			return fmt.Errorf("layer metric %s missing or not in %s", m.name, m.unit)
		}
		r.note("layer %-28s %14.4f %-8s moves %s", m.name, v.Value, v.Unit, m.moves)
	}
	for _, line := range selfTimes(tr.spans) {
		r.note("%s", line)
	}
	r.note("trace: %d spans written to %s", len(tr.spans), writeSpans(r, tr.spans))
	return nil
}

// replay crosses every layer for each planned problem, one request id
// per problem, with tracing on when tr is non-nil. It also runs the
// /simulate replay and checks its answers.
func replay(r *run, tr *tracer, db *costdb.DB, plan layerPlan, missInput []byte) (*replayOut, error) {
	out := &replayOut{}
	ctx := context.Background()
	svc := serve.NewWithDB(db, plan.opts)
	d, err := startDaemon(svc, 1)
	if err != nil {
		return nil, err
	}
	defer d.close()
	h := svc.Handler()
	gcMetrics := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}

	for i, p := range plan.problems {
		req := i + 1
		r.attempted++
		root := tr.begin(spanRequest, 0, req)
		sc, m, obj, err := p.build()
		if err != nil {
			return nil, err
		}
		// The config layer parses the daemon's custom-workload input:
		// the problem's own when it has one, else the miss workload.
		input := p.workload
		if input == nil {
			input = missInput
		}
		for k := 0; k < hitReps; k++ {
			var perr error
			tr.timed(spanParse, root, req, func() { _, perr = config.ParseWorkload(input) })
			if perr != nil {
				return nil, perr
			}
		}
		var comp *eval.Compiled
		tr.timed(spanCompile, root, req, func() { comp = eval.Compile(db, m, sc, plan.opts.Eval) })

		var lastLap time.Time
		var slowest time.Duration
		creq := &core.Request{Scenario: sc, MCM: m, Objective: obj, Compiled: comp, Progress: func(core.ProgressEvent) {
			now := time.Now()
			slowest = max(slowest, now.Sub(lastLap))
			lastLap = now
		}}
		var res *core.Result
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		metrics.Read(gcMetrics)
		gc0, cpu0 := gcMetrics[0].Value.Float64(), gcMetrics[1].Value.Float64()
		lastLap = time.Now()
		tr.timed(spanCore, root, req, func() { res, err = core.New(db, plan.opts).Schedule(ctx, creq) })
		metrics.Read(gcMetrics)
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.id, err)
		}
		out.gcCPU += gcMetrics[0].Value.Float64() - gc0
		out.totalCPU += gcMetrics[1].Value.Float64() - cpu0
		out.allocs += ms1.Mallocs - ms0.Mallocs
		out.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		out.evals += res.WindowEvals
		out.unique += res.UniqueWindows
		out.cands += res.Candidates
		out.slowestLap = max(out.slowestLap, slowest)

		// Replay the winning schedule's windows on the compiled session:
		// the evaluator's cost per window outside the search.
		scratch := comp.NewScratch()
		reps := max(1, 2000/max(len(res.Schedule.Windows), 1))
		tr.timed(spanWindow, root, req, func() {
			for k := 0; k < reps; k++ {
				for _, w := range res.Schedule.Windows {
					comp.WindowEval(scratch, w)
				}
			}
		})
		out.windowCalls += reps * len(res.Schedule.Windows)

		sreq := serveRequest(p)
		var sr *serve.ScheduleResult
		tr.timed(spanMiss, root, req, func() { sr, err = svc.Schedule(ctx, sreq) })
		if err != nil {
			return nil, fmt.Errorf("%s: serve miss: %w", p.id, err)
		}
		if sr.Cached || !sameResult(sr.Result, res) {
			r.problem("%s: the daemon's answer differs from the library's", p.id)
		}
		for k := 0; k < hitReps; k++ {
			tr.timed(spanHit, root, req, func() { sr, err = svc.Schedule(ctx, sreq) })
			if err != nil || !sr.Cached {
				return nil, fmt.Errorf("%s: serve hit: cached=%v err=%v", p.id, err == nil && sr.Cached, err)
			}
		}
		body := p.body()
		for k := 0; k < hitReps; k++ {
			rec := httptest.NewRecorder()
			hreq := httptest.NewRequest(http.MethodPost, "/schedule", strings.NewReader(string(body)))
			tr.timed(spanServe, root, req, func() { h.ServeHTTP(rec, hreq) })
			if rec.Code != 200 {
				return nil, fmt.Errorf("%s: ServeHTTP status %d", p.id, rec.Code)
			}
		}
		for k := 0; k < hitReps; k++ {
			var status int
			tr.timed(spanPost, root, req, func() { status, _, err = d.post(ctx, "/schedule", body) })
			if err != nil || status != 200 {
				return nil, fmt.Errorf("%s: POST status %d: %v", p.id, status, err)
			}
		}
		tr.end(root)
	}
	if err := replaySimulate(r, tr, svc, db, plan, out); err != nil {
		return nil, err
	}
	out.svc = svc
	return out, nil
}

// serveRequest is the daemon request for a problem.
func serveRequest(p problem) serve.Request {
	return serve.Request{Scenario: p.scenario, WorkloadJSON: p.workload, Pattern: p.pattern, Width: p.w, Height: p.h, Objective: p.objective}
}

// simReps is how many times the /simulate replay runs.
const simReps = 5

// replaySimulate times Service.Simulate against online.Simulate on the
// same classes, built directly from the resident schedules, and checks
// that the two reports agree.
func replaySimulate(r *run, tr *tracer, svc *serve.Service, db *costdb.DB, plan layerPlan, out *replayOut) error {
	ctx := context.Background()
	var sreq serve.SimRequest
	var classes []online.Class
	for i, p := range plan.simulate {
		seed := subSeed(r.seed, 20+uint64(i))
		sreq.Classes = append(sreq.Classes, serve.SimClass{Name: p.id, Request: serveRequest(p), RatePerSec: 2, Seed: seed})
		sr, err := svc.Schedule(ctx, serveRequest(p))
		if err != nil {
			return fmt.Errorf("%s: %w", p.id, err)
		}
		cl, err := online.NewClass(p.id, eval.New(db, sr.MCM, sr.Scenario, plan.opts.Eval), sr.Result.Schedule, online.Poisson{RatePerSec: 2, Seed: seed}, 3)
		if err != nil {
			return err
		}
		classes = append(classes, cl)
	}
	sreq.MaxRequestsPerClass = simRequestsPerClass
	for k := 0; k < simReps; k++ {
		req := len(plan.problems) + 1 + k
		r.attempted++
		root := tr.begin(spanRequest, 0, req)
		var viaServe, direct *online.Report
		var err, derr error
		tr.timed(spanSimulate, root, req, func() { viaServe, err = svc.Simulate(ctx, sreq) })
		tr.timed(spanOnline, root, req, func() {
			direct, derr = online.Simulate(ctx, online.Config{Classes: classes, MaxRequestsPerClass: simRequestsPerClass})
		})
		tr.end(root)
		if err != nil || derr != nil {
			return fmt.Errorf("simulate: %v / %v", err, derr)
		}
		if !reflect.DeepEqual(jsonOf(viaServe), jsonOf(direct)) {
			r.problem("simulate: the daemon's report differs from online.Simulate on the same classes")
		}
		out.simRequests += direct.Requests
	}
	return nil
}

func jsonOf(v any) string {
	b, _ := json.Marshal(v) // reports always marshal
	return string(b)
}

// replayCostModel times warm cost-database lookups and direct MAESTRO
// analyses over every (layer, dataflow, chiplet spec) the problems
// reach, and returns how many triples each timed.
func replayCostModel(tr *tracer, db *costdb.DB, probs []problem) (int, error) {
	type target struct {
		df   dataflow.Dataflow
		spec maestro.Chiplet
	}
	var layers []workload.Layer
	var targets []target
	seen := map[string]bool{}
	for _, p := range probs {
		sc, m, _, err := p.build()
		if err != nil {
			return 0, err
		}
		for _, md := range sc.Models {
			layers = append(layers, md.Layers...)
		}
		for _, c := range m.Chiplets {
			k := fmt.Sprintf("%s/%+v", c.Dataflow.Name, c.Spec)
			if !seen[k] {
				seen[k] = true
				targets = append(targets, target{c.Dataflow, c.Spec})
			}
		}
	}
	params := maestro.DefaultParams()
	tr.timed(spanCost, 0, 0, func() {
		for _, l := range layers {
			for _, t := range targets {
				db.Cost(l, t.df, t.spec)
			}
		}
	})
	tr.timed(spanAnalyze, 0, 0, func() {
		for _, l := range layers {
			for _, t := range targets {
				maestro.Analyze(l, t.df, t.spec, params)
			}
		}
	})
	return len(layers) * len(targets), nil
}

func spansByName(spans []span) map[string][]span {
	by := map[string][]span{}
	for _, s := range spans {
		by[s.Name] = append(by[s.Name], s)
	}
	return by
}

func totalDur(spans []span) time.Duration {
	var t time.Duration
	for _, s := range spans {
		t += s.dur()
	}
	return t
}

func medianDur(spans []span) time.Duration {
	var xs []float64
	for _, s := range spans {
		xs = append(xs, float64(s.dur()))
	}
	if len(xs) == 0 {
		return 0
	}
	return time.Duration(median(xs))
}

// diffByReq pairs the spans of two layers by request and returns spans
// whose duration is the per-request difference a - b.
func diffByReq(a, b []span) []span {
	bd := map[int]time.Duration{}
	for _, s := range b {
		bd[s.Req] += s.dur()
	}
	var out []span
	for _, s := range a {
		if d, ok := bd[s.Req]; ok {
			out = append(out, span{Req: s.Req, End: int64(s.dur() - d)})
		}
	}
	return out
}

// selfTimes renders each span name's total and self time: a span's
// duration minus the time its children cover.
func selfTimes(spans []span) []string {
	child := make([]time.Duration, len(spans)+1)
	for _, s := range spans {
		if s.Parent > 0 {
			child[s.Parent] += s.dur()
		}
	}
	type agg struct {
		n           int
		total, self time.Duration
	}
	by := map[string]*agg{}
	for _, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		a.n++
		a.total += s.dur()
		a.self += s.dur() - child[s.ID]
	}
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return by[names[i]].self > by[names[j]].self })
	var lines []string
	for _, n := range names {
		a := by[n]
		lines = append(lines, fmt.Sprintf("span %-34s n=%-6d total %10.3f ms  self %10.3f ms", n, a.n, ms(a.total), ms(a.self)))
	}
	return lines
}

// writeSpans writes the spans as JSON under the build directory of the
// checkout and returns the path (or the error text).
func writeSpans(r *run, spans []span) string {
	dir := filepath.Join(r.root, ".bench_build", "perfbench")
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", r.workload, r.seed))
	b, err := json.Marshal(spans)
	if err == nil {
		if err = os.MkdirAll(dir, 0o755); err == nil {
			err = os.WriteFile(path, b, 0o644)
		}
	}
	if err != nil {
		return "nowhere: " + err.Error()
	}
	return path
}

// simProblems picks the two /simulate replay classes from a problem set
// by id.
func simProblems(probs []problem, ids ...string) []problem {
	var out []problem
	for _, id := range ids {
		for _, p := range probs {
			if p.id == id {
				out = append(out, p)
			}
		}
	}
	return out
}

// hitReps is how many times each request calls the hit, ServeHTTP, POST
// and config layers in the replay; their medians are per call.
const hitReps = 20

func traceSearch4x4(r *run) error {
	probs := search4x4Problems()
	opts := searchOptions(r.seed)
	return traceLayers(r, layerPlan{
		opts:     opts,
		problems: probs,
		simulate: simProblems(probs, "sc6/het-sides-4x4/edp", "sc7/het-sides-4x4/edp"),
		// One closed-loop pass of the workload's own traffic over HTTP.
		traffic: func(r *run, tr *tracer, db *costdb.DB) (*serve.Stats, error) {
			svc := serve.NewWithDB(db, opts)
			d, err := startDaemon(svc, 1)
			if err != nil {
				return nil, err
			}
			defer d.close()
			var loop closedLoop
			for i, p := range probs {
				var status int
				loop.call(tr, "http POST /schedule miss", trafficReq+i, func() { status, _, err = d.post(context.Background(), "/schedule", p.body()) })
				if err != nil || status != 200 {
					return nil, fmt.Errorf("%s: status %d: %v", p.id, status, err)
				}
			}
			loop.report(r)
			st := svc.Stats()
			return &st, nil
		},
	})
}

func traceSearch6x6(r *run) error {
	probs := search6x6Problems()
	opts := searchOptions(r.seed)
	opts.Workers = 1
	opts.Search = core.SearchEvolutionary
	return traceLayers(r, layerPlan{
		opts:     opts,
		problems: probs,
		simulate: simProblems(probs, "sc9/het-sides-6x6/edp", "sc10/het-sides-6x6/edp"),
		// Five closed-loop rounds of the library calls.
		traffic: func(r *run, tr *tracer, _ *costdb.DB) (*serve.Stats, error) {
			sched := scar.NewScheduler(searchOptions(r.seed))
			var loop closedLoop
			for round := 0; round < 5; round++ {
				for i, p := range probs {
					var err error
					loop.call(tr, "scar.Scheduler.Schedule", trafficReq+round*len(probs)+i, func() { _, _, err = schedule6x6(sched, p) })
					if err != nil {
						return nil, fmt.Errorf("%s: %w", p.id, err)
					}
				}
			}
			loop.report(r)
			return nil, nil
		},
	})
}

func traceServeMix(r *run) error {
	wl, err := readMissWorkload(r.root)
	if err != nil {
		return err
	}
	probs := append(hitProblems(), missProblem(wl, "replay"))
	return traceLayers(r, layerPlan{
		opts:     searchOptions(r.seed),
		problems: probs,
		simulate: simProblems(probs, "sc6/het-sides-3x3/edp", "sc7/het-sides-3x3/edp"),
		// A reference-rate phase of the mix, each request a span.
		traffic: func(r *run, tr *tracer, _ *costdb.DB) (*serve.Stats, error) {
			env, err := setupMix(r.root, r.seed)
			if err != nil {
				return nil, err
			}
			defer env.d.close()
			base := env.d.service().Stats()
			rng := rand.New(rand.NewSource(subSeed(r.seed, 3)))
			pr := env.runPhase(env.generate(rng, mixRefRate, r.seconds/4), tr)
			env.account(r, newChecker(), pr, true)
			r.set("gen.late_p99_ms", quantile(pr.late, 0.99), "ms")
			r.set("gen.backlog_max", float64(pr.backlogMax), "count")
			st := env.d.service().Stats()
			if searches := st.ScheduleCalls - base.ScheduleCalls; searches != int64(pr.missSent) {
				r.problem("serve.cache.searches %d != misses sent %d", searches, pr.missSent)
			}
			delta := statsDelta(st, base)
			return &delta, nil
		},
	})
}

// trafficReq offsets the request ids of traffic spans from the replay's.
const trafficReq = 1_000_000

// closedLoop times back-to-back calls of one client. Its lateness is the
// gap between one call's end and the next call's start — the client's
// own overhead — and it never has a backlog.
type closedLoop struct {
	prevEnd time.Time
	gaps    []float64
}

func (l *closedLoop) call(tr *tracer, name string, req int, fn func()) {
	start := time.Now()
	if !l.prevEnd.IsZero() {
		l.gaps = append(l.gaps, ms(start.Sub(l.prevEnd)))
	}
	tr.timed(name, 0, req, fn)
	l.prevEnd = time.Now()
}

func (l *closedLoop) report(r *run) {
	r.set("gen.late_p99_ms", quantile(l.gaps, 0.99), "ms")
	r.set("gen.backlog_max", 0, "count")
}

// statsDelta is the counter part of b..a.
func statsDelta(a, b serve.Stats) serve.Stats {
	return serve.Stats{
		Requests:         a.Requests - b.Requests,
		ScheduleCalls:    a.ScheduleCalls - b.ScheduleCalls,
		CacheHits:        a.CacheHits - b.CacheHits,
		SaturatedRejects: a.SaturatedRejects - b.SaturatedRejects,
		DegradedAnswers:  a.DegradedAnswers - b.DegradedAnswers,
		DrainRejects:     a.DrainRejects - b.DrainRejects,
	}
}
