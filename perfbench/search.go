package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"time"

	"example.com/scar"
	"example.com/scar/internal/core"
	"example.com/scar/internal/costdb"
	"example.com/scar/internal/eval"
	"example.com/scar/internal/maestro"
	"example.com/scar/internal/serve"
)

// Set-up repetitions per run; setup_s is their median and the last set-up
// is the one measured. The search workloads set up in tens of
// milliseconds, so they repeat more to steady the median.
const (
	searchSetupReps = 15
	mixSetupReps    = 5
)

// search4x4Problems are the search-4x4 problem set: scenarios 1-10 on
// Het-Sides 4x4 under EDP and on Het-CB 4x4 under latency.
func search4x4Problems() []problem {
	var ps []problem
	for _, v := range []struct{ pattern, obj string }{{"het-sides", "edp"}, {"het-cb", "latency"}} {
		for sc := 1; sc <= 10; sc++ {
			ps = append(ps, problem{id: fmt.Sprintf("sc%d/%s-4x4/%s", sc, v.pattern, v.obj), scenario: sc, pattern: v.pattern, w: 4, h: 4, objective: v.obj})
		}
	}
	return ps
}

// search6x6Problems are the search-6x6-evo problem set: the paper's
// Section V-D package (Het-Sides 6x6) with the evolutionary search, on
// scenarios 9 and 10 under each objective. These stay in the GA for
// every seed. Scenarios 1-8 are left out: when the GA finds no feasible
// genome the search falls back to an unbounded brute-force tree search
// (27-41 s for scenarios 1 and 2, 2.6-13.5 s for scenario 8 on half the
// seeds, minutes for 4-7), which no run length can hold.
func search6x6Problems() []problem {
	var ps []problem
	for _, sc := range []int{9, 10} {
		for _, obj := range []string{"edp", "latency", "energy"} {
			ps = append(ps, problem{id: fmt.Sprintf("sc%d/het-sides-6x6/%s", sc, obj), scenario: sc, pattern: "het-sides", w: 6, h: 6, objective: obj})
		}
	}
	return ps
}

// warmCostDB fills db with every layer cost the problems need, the way a
// daemon started from a saved cost database would hold them.
func warmCostDB(db *costdb.DB, probs []problem, opts eval.Options) error {
	for _, p := range probs {
		sc, m, _, err := p.build()
		if err != nil {
			return err
		}
		eval.Compile(db, m, sc, opts)
	}
	return nil
}

// timeSetup runs setup reps times and records setup_s as the median
// duration. The first repetition is timed from process start.
func timeSetup(r *run, reps int, setup func() error) error {
	var durs []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		if err := setup(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		durs = append(durs, time.Since(t0).Seconds())
	}
	r.set("setup_s", median(durs), "s")
	r.note("setup: %d repetitions, seconds %v", reps, durs)
	return nil
}

// searchSamples are the timings of a closed-loop search run.
type searchSamples struct {
	perProblem map[string][]float64 // ms, by problem id
	score      map[string]float64   // winning objective score by problem id
}

// roundRobin calls do reps times on each problem in a seeded order, round
// after round, until the run's time is spent and every problem has been
// measured at least once. Every problem gets the same number of calls in
// a round, so each weighs the same in the pooled latencies. do returns the
// call's latency and the winning schedule's score.
func roundRobin(r *run, probs []problem, reps int, do func(problem) (time.Duration, float64, error)) searchSamples {
	out := searchSamples{perProblem: map[string][]float64{}, score: map[string]float64{}}
	order := rand.New(rand.NewSource(subSeed(r.seed, 1))).Perm(len(probs))
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < r.seconds; round++ {
		for _, i := range order {
			p := probs[i]
			for k := 0; k < reps; k++ {
				r.attempted++
				d, score, err := do(p)
				if err != nil {
					r.fail("%s: %v", p.id, err)
					break
				}
				out.perProblem[p.id] = append(out.perProblem[p.id], ms(d))
				out.score[p.id] = score
			}
			if round > 0 && time.Since(start) >= r.seconds {
				break
			}
		}
	}
	return out
}

// report sets the end-to-end metrics of a closed-loop search run from
// each problem's median latency, so one slow call or one problem's
// repetition count cannot move them. Every call is a cold search, so the
// serving and miss latencies are quantiles over the problems, and the
// throughput is that of one client working through the problem set.
func (s searchSamples) report(r *run) {
	var medians, scores []float64
	ids := make([]string, 0, len(s.perProblem))
	for id := range s.perProblem {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		xs := s.perProblem[id]
		medians = append(medians, median(xs))
		scores = append(scores, s.score[id])
		r.note("search: %s: %d calls, median %.3f ms", id, len(xs), median(xs))
	}
	r.set("search_s", sum(medians)/1e3, "s")
	r.set("search_geomean_ms", geomean(medians), "ms")
	r.set("sched_score_geomean", geomean(scores), "score")
	r.set("serve_p50_ms", median(medians), "ms")
	r.set("serve_p99_ms", quantile(medians, 0.99), "ms")
	r.set("miss_p50_ms", median(medians), "ms")
	r.set("serve_max_rps", float64(len(medians))/(sum(medians)/1e3), "1/s")
}

func setEnd(r *run) {
	r.set("success_rate", float64(r.attempted-r.failed)/float64(max(r.attempted, 1)), "fraction")
	r.set("rss_mb", r.rss.median(), "MB")
	r.note("memory: peak resident %.1f MB", rssMB("VmHWM"))
}

// searchOptions is the daemon's configuration for this run: the
// paper defaults with the search seed drawn from the workload seed.
func searchOptions(seed int64) core.Options {
	opts := core.DefaultOptions()
	opts.Seed = seed
	return opts
}

// measureSearch4x4 is the search-4x4 workload: one client on one
// keep-alive connection sends POST /schedule for 20 cold problems to the
// in-process daemon. The service is replaced by a fresh one (over the
// same warm cost database) before every request, so every request is a
// cache miss and runs the full search.
func measureSearch4x4(r *run) error {
	opts := searchOptions(r.seed)
	probs := search4x4Problems()
	var db *costdb.DB
	var d *daemon
	err := timeSetup(r, searchSetupReps, func() error {
		if d != nil {
			if err := d.close(); err != nil {
				return err
			}
		}
		db = costdb.New(maestro.DefaultParams())
		if err := warmCostDB(db, probs, opts.Eval); err != nil {
			return err
		}
		var err error
		d, err = startDaemon(serve.NewWithDB(db, opts), 1)
		return err
	})
	if err != nil {
		return err
	}
	defer d.close()

	chk := newChecker()
	first := map[string][]byte{}
	ctx := context.Background()
	s := roundRobin(r, probs, 1, func(p problem) (time.Duration, float64, error) {
		d.swap(serve.NewWithDB(db, opts))
		body := p.body()
		t0 := time.Now()
		status, resp, err := d.post(ctx, "/schedule", body)
		lat := time.Since(t0)
		if err != nil {
			return 0, 0, err
		}
		if status != 200 {
			return 0, 0, fmt.Errorf("status %d: %s", status, resp)
		}
		var a answer
		if err := json.Unmarshal(resp, &a); err != nil {
			return 0, 0, err
		}
		if a.Cached {
			return 0, 0, fmt.Errorf("answered from cache; the workload measures cold searches")
		}
		if f, ok := first[p.id]; !ok {
			if err := chk.verifyBody(p, resp); err != nil {
				return 0, 0, err
			}
			first[p.id] = canonical(resp)
		} else if string(f) != string(canonical(resp)) {
			return 0, 0, fmt.Errorf("answer differs from the first answer to the same problem")
		}
		obj, _ := core.ObjectiveByName(p.objective) // names come from the fixed problem set
		return lat, obj.Score(a.Metrics), nil
	})
	s.report(r)
	setEnd(r)
	return nil
}

// measureSearch6x6 is the search-6x6-evo workload: the library path,
// scar.Scheduler.Schedule with the evolutionary search and one worker on
// the paper's 6x6 Het-Sides package.
func measureSearch6x6(r *run) error {
	opts := searchOptions(r.seed)
	probs := search6x6Problems()
	var sched *scar.Scheduler
	err := timeSetup(r, searchSetupReps, func() error {
		sched = scar.NewScheduler(opts)
		for _, p := range probs {
			sc, m, _, err := p.build()
			if err != nil {
				return err
			}
			if _, err := sched.NewSession(sc, m); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	chk := newChecker()
	first := map[string]*scar.Result{}
	// The problems take milliseconds; 25 calls each make a round of about
	// half a second.
	s := roundRobin(r, probs, 25, func(p problem) (time.Duration, float64, error) {
		res, lat, err := schedule6x6(sched, p)
		if err != nil {
			return 0, 0, err
		}
		if f, ok := first[p.id]; !ok {
			if err := chk.verify(p, res.Schedule, res.Partial, res.Metrics); err != nil {
				return 0, 0, err
			}
			first[p.id] = res
		} else if !sameResult(f, res) {
			return 0, 0, fmt.Errorf("result differs from the first result of the same problem")
		}
		obj, _ := core.ObjectiveByName(p.objective)
		return lat, obj.Score(res.Metrics), nil
	})
	s.report(r)
	setEnd(r)
	return nil
}

// schedule6x6 runs one search-6x6-evo call and returns its latency.
func schedule6x6(sched *scar.Scheduler, p problem) (*scar.Result, time.Duration, error) {
	sc, m, obj, err := p.build()
	if err != nil {
		return nil, 0, err
	}
	one, evo := 1, scar.SearchEvolutionary
	req := &scar.Request{Scenario: sc, MCM: m, Objective: obj, Workers: &one, Search: &evo}
	t0 := time.Now()
	res, err := sched.Schedule(context.Background(), req)
	return res, time.Since(t0), err
}

// sameResult compares two results of the same problem: schedule, metrics
// and the exact search counts.
func sameResult(a, b *core.Result) bool {
	return reflect.DeepEqual(a.Schedule, b.Schedule) && reflect.DeepEqual(a.Metrics, b.Metrics) &&
		a.WindowEvals == b.WindowEvals && a.UniqueWindows == b.UniqueWindows && a.Candidates == b.Candidates
}
