package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"example.com/scar/internal/core"
	"example.com/scar/internal/costdb"
	"example.com/scar/internal/maestro"
	"example.com/scar/internal/serve"
)

// The serve-mix traffic. Rates are absolute, never derived from a run's
// own capacity, so two commits are compared at the same offered load.
const (
	// mixRefRate is the reference rate (req/s) at which serve_p50_ms,
	// serve_p99_ms, miss_p50_ms and the correctness checks are taken.
	// It sits below the knee where requests start queueing behind the
	// mix's 10 ms requests on a 2-CPU host, so it measures service, not
	// queueing noise.
	mixRefRate = 500.0
	// The max-rate search walks a fixed geometric ladder of absolute
	// rates, ladderBase * ladderStep^k for k < ladderLen (500 to 10,900
	// req/s): 5% resolution, found by a binary search of log2(ladderLen)
	// trials.
	ladderBase = 500.0
	ladderStep = 1.05
	ladderLen  = 64
	// mixP99LimitMs is the latency limit a rate must meet to count as
	// sustained. The mix's /simulate and miss requests take about 10 ms
	// each over two connections, so on a 2-CPU host p99 sits on a
	// plateau of 10-20 ms from 1000 to 3000 req/s, where noise decides a
	// 20 ms limit and moved the found rate by a quarter between runs; it
	// climbs past 100 ms within a few ladder steps of saturation.
	mixP99LimitMs = 100.0
	// mixAbortLateMs abandons a trial whose generator has fallen this far
	// behind: the rate is clearly not sustained.
	mixAbortLateMs = 250.0
	// Mix shares: the rest of the requests are /simulate.
	mixHitShare  = 0.97
	mixMissShare = 0.015
	// missCacheSlack is how many cold entries the schedule cache holds
	// beside the 20 resident keys. Misses evict each other once it is
	// full, so cache writes run beside the reads. The cache evicts per
	// shard, so the slack must leave every shard some cold entry to shed
	// or a resident key is evicted instead; with 128 cold entries over 8
	// shards a shard is left without one with odds below 1e-6.
	missCacheSlack = 128
	// simRequestsPerClass is the simulated request count per /simulate
	// class.
	simRequestsPerClass = 1000
)

// mixKind is a request type of the serve-mix.
type mixKind int

const (
	kindHit mixKind = iota
	kindMiss
	kindSim
)

// hitProblems are the 20 resident keys: scenarios 1-10 under latency
// and EDP on the daemon's default package (Het-Sides 3x3).
func hitProblems() []problem {
	var ps []problem
	for sc := 1; sc <= 10; sc++ {
		for _, obj := range []string{"latency", "edp"} {
			ps = append(ps, problem{id: fmt.Sprintf("sc%d/het-sides-3x3/%s", sc, obj), scenario: sc, pattern: "het-sides", w: 3, h: 3, objective: obj})
		}
	}
	return ps
}

// readMissWorkload reads the miss stream's workload: the config
// package's test workload.
func readMissWorkload(root string) (map[string]any, error) {
	raw, err := os.ReadFile(filepath.Join(root, "internal", "config", "testdata", "workload.json"))
	if err != nil {
		return nil, err
	}
	var wl map[string]any
	if err := json.Unmarshal(raw, &wl); err != nil {
		return nil, fmt.Errorf("miss workload: %w", err)
	}
	return wl, nil
}

// missProblem is the miss stream's problem: the miss workload on a 2x2
// package under the given name. Each miss gets its own name, so every
// request is a distinct cache key.
func missProblem(wl map[string]any, name string) problem {
	named := map[string]any{}
	for k, v := range wl {
		named[k] = v
	}
	named["name"] = name
	b, _ := json.Marshal(named) // decoded JSON always marshals
	return problem{id: "miss/het-sides-2x2/edp", workload: b, pattern: "het-sides", w: 2, h: 2, objective: "edp"}
}

// simRequest is the /simulate body: scenario 6 and scenario 7 classes on
// their resident schedules.
func simRequest(seed int64) serve.SimRequest {
	return serve.SimRequest{
		Classes: []serve.SimClass{
			{Request: serve.Request{Scenario: 6}, RatePerSec: 2, Seed: subSeed(seed, 10)},
			{Request: serve.Request{Scenario: 7}, RatePerSec: 2, Seed: subSeed(seed, 11)},
		},
		MaxRequestsPerClass: simRequestsPerClass,
	}
}

// mixEnv is a set-up serve-mix daemon with the reference answers the
// checks compare against.
type mixEnv struct {
	opts    core.Options
	db      *costdb.DB
	d       *daemon
	hits    []problem
	hitBody [][]byte
	hitRef  [][]byte // cached answer per resident key
	hitCmp  [][]byte // hitRef without its per-call time, as hits are compared
	simBody []byte
	simRef  []byte
	missWL  map[string]any
	misses  int64 // miss names handed out
	seed    int64
}

// setupMix builds the daemon: warm cost database, the 20 resident keys
// searched and cached, and the reference /simulate report.
func setupMix(root string, seed int64) (*mixEnv, error) {
	wl, err := readMissWorkload(root)
	if err != nil {
		return nil, err
	}
	env := &mixEnv{opts: searchOptions(seed), db: costdb.New(maestro.DefaultParams()), hits: hitProblems(), missWL: wl, seed: seed}
	if err := warmCostDB(env.db, append(append([]problem(nil), env.hits...), env.missProblem("warm")), env.opts.Eval); err != nil {
		return nil, err
	}
	svc := serve.NewWithConfig(env.db, env.opts, serve.Config{MaxCachedSchedules: len(env.hits) + missCacheSlack})
	if env.d, err = startDaemon(svc, runtime.GOMAXPROCS(0)); err != nil {
		return nil, err
	}
	ctx := context.Background()
	for _, p := range env.hits {
		body := p.body()
		var resp []byte
		for i := 0; i < 2; i++ { // the first call searches, the second is the cached reference
			status, b, err := env.d.post(ctx, "/schedule", body)
			if err != nil {
				env.d.close()
				return nil, err
			}
			if status != 200 {
				env.d.close()
				return nil, fmt.Errorf("prefill %s: status %d: %s", p.id, status, b)
			}
			resp = b
		}
		env.hitBody = append(env.hitBody, body)
		env.hitRef = append(env.hitRef, resp)
		env.hitCmp = append(env.hitCmp, untimed(resp))
	}
	sr := simRequest(seed)
	rep, err := svc.Simulate(ctx, sr)
	if err != nil {
		env.d.close()
		return nil, fmt.Errorf("reference simulation: %w", err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf) // the daemon's encoding of a report
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		env.d.close()
		return nil, err
	}
	env.simRef = buf.Bytes()
	env.simBody, _ = json.Marshal(sr) // plain values always marshal
	return env, nil
}

// mixReq is one generated request.
type mixReq struct {
	due  time.Duration // from phase start
	kind mixKind
	key  int // resident key for hits
	body []byte
}

// generate draws a Poisson arrival stream at rate for dur, with the mix
// drawn per request. Miss names are unique across the run.
func (env *mixEnv) generate(rng *rand.Rand, rate float64, dur time.Duration) []mixReq {
	var reqs []mixReq
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= dur.Seconds() {
			return reqs
		}
		rq := mixReq{due: time.Duration(t * float64(time.Second))}
		switch u := rng.Float64(); {
		case u < mixHitShare:
			rq.kind, rq.key = kindHit, rng.Intn(len(env.hits))
			rq.body = env.hitBody[rq.key]
		case u < mixHitShare+mixMissShare:
			env.misses++
			rq.kind, rq.body = kindMiss, env.missProblem(fmt.Sprintf("perfbench-miss-%d-%d", env.seed, env.misses)).body()
		default:
			rq.kind, rq.body = kindSim, env.simBody
		}
		reqs = append(reqs, rq)
	}
}

// phaseResult is one open-loop phase's outcome. Latencies are timed from
// each request's due time, so a stall charges every request it delays.
type phaseResult struct {
	sent       int
	failed     int // failed or incorrect
	wrong      int // incorrect answers among failed
	aborted    bool
	lat        []float64 // ms, every request sent, in due order
	missLat    []float64 // ms
	simLat     []float64 // ms
	late       []float64 // ms, send time minus due time
	backlogMax int
	missSent   int
	missBodies [][]byte
	// missElapsed is each miss answer's elapsed_ms: the daemon's time
	// for the request, filled in by account.
	missElapsed []float64
	problems    []string
}

// passes reports whether the phase sustained its rate: no failure, p99
// within the limit, and a final fifth no slower than that (a backlog
// still growing at the end shows there).
func (pr *phaseResult) passes() bool {
	if pr.aborted || pr.failed > 0 || len(pr.lat) == 0 {
		return false
	}
	tail := pr.lat[len(pr.lat)*4/5:]
	return quantile(pr.lat, 0.99) <= mixP99LimitMs && quantile(tail, 0.99) <= mixP99LimitMs
}

// runPhase sends reqs open-loop over the daemon's connections. Each of
// the conns senders takes the next request in due order, waits for its
// due time and sends it, so at most conns requests are in flight; a
// request whose due time passes while every sender is busy waits, and
// that wait counts in its latency.
func (env *mixEnv) runPhase(reqs []mixReq, tr *tracer) *phaseResult {
	conns := runtime.GOMAXPROCS(0)
	n := len(reqs)
	lat := make([]float64, n)
	late := make([]float64, n)
	ok := make([]bool, n)
	sent := make([]bool, n)
	bodies := make([][]byte, n)
	errs := make([]string, n)
	wrong := make([]bool, n)
	backlog := make([]int, conns)
	var next atomic.Int64
	var abort atomic.Bool
	ctx := context.Background()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || abort.Load() {
					return
				}
				rq := &reqs[i]
				due := start.Add(rq.due)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				now := time.Since(start)
				late[i] = ms(now - rq.due)
				if late[i] > mixAbortLateMs {
					abort.Store(true)
					return
				}
				// Requests due by now but not yet taken by a sender.
				if b := sort.Search(n, func(j int) bool { return reqs[j].due > now }) - i - 1; b > backlog[c] {
					backlog[c] = b
				}
				path := "/schedule"
				if rq.kind == kindSim {
					path = "/simulate"
				}
				span := tr.begin(spanName(rq.kind), 0, trafficReq+i)
				status, body, err := env.d.post(ctx, path, rq.body)
				tr.end(span)
				lat[i] = ms(time.Since(due))
				sent[i] = true
				switch {
				case err != nil:
					errs[i] = err.Error()
				case status != 200:
					errs[i] = fmt.Sprintf("status %d: %.200s", status, body)
				case rq.kind == kindHit && !bytes.Equal(untimed(body), env.hitCmp[rq.key]):
					errs[i] = fmt.Sprintf("hit on %s differs from its prefill answer", env.hits[rq.key].id)
					wrong[i] = true
				case rq.kind == kindSim && !bytes.Equal(body, env.simRef):
					errs[i] = "simulation report differs from the reference report"
					wrong[i] = true
				default:
					ok[i] = true
					if rq.kind == kindMiss {
						bodies[i] = body
					}
				}
			}
		}(c)
	}
	wg.Wait()
	pr := &phaseResult{aborted: abort.Load()}
	for _, b := range backlog {
		pr.backlogMax = max(pr.backlogMax, b)
	}
	for i := range reqs {
		if !sent[i] {
			continue
		}
		pr.sent++
		pr.lat = append(pr.lat, lat[i])
		pr.late = append(pr.late, late[i])
		if reqs[i].kind == kindMiss {
			pr.missSent++
		}
		if !ok[i] {
			pr.failed++
			if wrong[i] {
				pr.wrong++
			}
			if len(pr.problems) < 5 {
				pr.problems = append(pr.problems, errs[i])
			}
			continue
		}
		switch reqs[i].kind {
		case kindMiss:
			pr.missLat = append(pr.missLat, lat[i])
			pr.missBodies = append(pr.missBodies, bodies[i])
		case kindSim:
			pr.simLat = append(pr.simLat, lat[i])
		}
	}
	return pr
}

func spanName(k mixKind) string {
	switch k {
	case kindMiss:
		return "http /schedule miss"
	case kindSim:
		return "http /simulate"
	}
	return "http /schedule hit"
}

// rung is the ladder's k-th rate.
func rung(k int) float64 { return ladderBase * math.Pow(ladderStep, float64(k)) }

// account folds a phase's operations into the run and verifies its miss
// answers by re-evaluation. Wrong answers fail the run at any rate; other
// failures (transport errors, error statuses) fail it when strict — at
// the reference rate — and otherwise only fail the ladder trial's rate.
func (env *mixEnv) account(r *run, chk *checker, pr *phaseResult, strict bool) {
	r.attempted += pr.sent
	bad := pr.wrong
	if strict {
		bad = pr.failed
	}
	r.failed += bad
	if bad > 0 {
		for _, p := range pr.problems {
			r.problem("%s", p)
		}
	}
	mp := env.missProblem("check")
	for _, b := range pr.missBodies {
		var a answer
		if err := json.Unmarshal(b, &a); err != nil || a.Cached {
			r.fail("miss answered from cache or unreadable")
			continue
		}
		pr.missElapsed = append(pr.missElapsed, a.ElapsedMs)
		if err := chk.verifyBody(mp, b); err != nil {
			r.fail("%v", err)
		}
	}
}

// measureServeMix is the serve-mix workload: open-loop Poisson traffic
// from this process over at most GOMAXPROCS keep-alive connections to
// the in-process daemon — mostly cache hits, with a stream of cold
// custom-workload misses and /simulate calls beside them. It measures
// the reference rate, then searches the ladder for the highest rate that
// keeps p99 within the limit.
func measureServeMix(r *run) error {
	var env *mixEnv
	err := timeSetup(r, mixSetupReps, func() error {
		if env != nil {
			if err := env.d.close(); err != nil {
				return err
			}
		}
		var err error
		env, err = setupMix(r.root, r.seed)
		return err
	})
	if err != nil {
		return err
	}
	defer env.d.close()
	chk := newChecker()
	if err := env.verifyRefs(chk); err != nil {
		r.problem("%v", err)
	}
	base := env.d.service().Stats()
	rng := rand.New(rand.NewSource(subSeed(r.seed, 2)))

	refDur := r.seconds / 2
	trialDur := (r.seconds - refDur) / time.Duration(bits(ladderLen))
	ref := env.runPhase(env.generate(rng, mixRefRate, refDur), nil)
	env.account(r, chk, ref, true)
	missesSent := ref.missSent

	// Binary search over the ladder: lo passes (or is below the ladder),
	// hi fails (or is above it).
	lo, hi := -1, ladderLen
	var trials []string
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		pr := env.runPhase(env.generate(rng, rung(mid), trialDur), nil)
		missesSent += pr.missSent
		env.account(r, chk, pr, false)
		if pr.passes() {
			lo = mid
		} else {
			hi = mid
		}
		trials = append(trials, fmt.Sprintf("%.0f:p99=%.1fms:%v", rung(mid), quantile(pr.lat, 0.99), pr.passes()))
	}
	maxRPS := ladderBase / ladderStep // nothing on the ladder sustained
	if lo >= 0 {
		maxRPS = rung(lo)
	}

	st := env.d.service().Stats()
	if searches := st.ScheduleCalls - base.ScheduleCalls; searches != int64(missesSent) {
		r.problem("serve.cache.searches %d != misses sent %d (a resident key was evicted or a hit searched)", searches, missesSent)
	}
	r.set("serve_p50_ms", median(ref.lat), "ms")
	r.set("serve_p99_ms", quantile(ref.lat, 0.99), "ms")
	r.set("miss_p50_ms", median(ref.missLat), "ms")
	r.set("serve_max_rps", maxRPS, "1/s")
	// The miss stream is this workload's one cold-search problem; its
	// search time is the daemon's own time for the request (elapsed_ms),
	// without the wait for a connection that miss_p50_ms includes.
	searchMS := median(ref.missElapsed)
	r.set("search_s", searchMS/1e3, "s")
	r.set("search_geomean_ms", searchMS, "ms")
	scores, err := env.scores()
	if err != nil {
		return err
	}
	r.set("sched_score_geomean", geomean(scores), "score")
	setEnd(r)
	r.note("serve-mix: reference %.0f req/s: %d sent (%d misses, %d simulations), gen late p99 %.3f ms, backlog max %d; simulate p50 %.3f ms",
		mixRefRate, ref.sent, len(ref.missLat), len(ref.simLat), quantile(ref.late, 0.99), ref.backlogMax, median(ref.simLat))
	r.note("serve-mix: ladder trials (req/s:p99:sustained) %v", trials)
	return nil
}

func (env *mixEnv) missProblem(name string) problem { return missProblem(env.missWL, name) }

// bits is the number of binary-search steps over n rungs.
func bits(n int) int {
	b := 0
	for 1<<b < n {
		b++
	}
	return b
}

// verifyRefs re-evaluates the resident keys' reference answers, so a hit
// equal to its reference is a verified answer.
func (env *mixEnv) verifyRefs(chk *checker) error {
	for i, p := range env.hits {
		if err := chk.verifyBody(p, env.hitRef[i]); err != nil {
			return err
		}
	}
	return nil
}

// scores returns the winning objective scores of every problem this
// workload schedules: the 20 resident keys and the miss problem.
func (env *mixEnv) scores() ([]float64, error) {
	var out []float64
	add := func(p problem, body []byte) error {
		var a answer
		if err := json.Unmarshal(body, &a); err != nil {
			return err
		}
		obj, err := core.ObjectiveByName(p.objective)
		if err != nil {
			return err
		}
		out = append(out, obj.Score(a.Metrics))
		return nil
	}
	for i, p := range env.hits {
		if err := add(p, env.hitRef[i]); err != nil {
			return nil, err
		}
	}
	mp := env.missProblem("score")
	status, body, err := env.d.post(context.Background(), "/schedule", mp.body())
	if err != nil || status != 200 {
		return nil, fmt.Errorf("miss score: status %d: %v", status, err)
	}
	return out, add(mp, body)
}
