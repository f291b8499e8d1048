package core

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"example.com/scar/internal/costdb"
	"example.com/scar/internal/eval"
	"example.com/scar/internal/maestro"
	"example.com/scar/internal/mcm"
)

// slowEDP is an EDP objective whose every score call sleeps, making the
// search wall clock controllable: with it, a full search takes hundreds
// of milliseconds and a cancelled one must return far sooner.
func slowEDP(perEval time.Duration, evals *atomic.Int64) Objective {
	return CustomObjective("slow-edp", func(m eval.Metrics) float64 {
		if evals != nil {
			evals.Add(1)
		}
		time.Sleep(perEval)
		return m.EDP
	})
}

// TestScheduleCancelledBeforeStart: an already-dead context never starts
// a search.
func TestScheduleCancelledBeforeStart(t *testing.T) {
	db := costdb.New(maestro.DefaultParams())
	pkg := mcm.HetCB(3, 3, maestro.DefaultDatacenterChiplet())
	sc := smallScenario()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := New(db, FastOptions()).Schedule(ctx, NewRequest(&sc, pkg, EDPObjective()))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestScheduleDeadlinePromptAnytime is the cancellation contract: a
// deadline expiring mid-search returns promptly — far inside the full
// search's budget — with either a valid Partial incumbent or the
// context's error.
func TestScheduleDeadlinePromptAnytime(t *testing.T) {
	db := costdb.New(maestro.DefaultParams())
	pkg := mcm.HetSides(3, 3, maestro.DefaultDatacenterChiplet())
	sc := smallScenario()
	opts := FastOptions()

	// Baseline: the uncancelled slow search (also warms the cost DB so
	// the cancelled run below measures search time, not warmup).
	obj := slowEDP(200*time.Microsecond, nil)
	start := time.Now()
	full, err := New(db, opts).Schedule(context.Background(), NewRequest(&sc, pkg, obj))
	if err != nil {
		t.Fatal(err)
	}
	fullDur := time.Since(start)
	if full.Partial {
		t.Fatal("uncancelled run reported Partial")
	}

	deadline := 5 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start = time.Now()
	res, err := New(db, opts).Schedule(ctx, NewRequest(&sc, pkg, obj))
	cancelledDur := time.Since(start)

	// Promptness: well under the unbounded duration, and bounded in
	// absolute terms (generous for CI noise: the floor is one window
	// eval per in-flight combo task plus the 32-eval poll granularity).
	if cancelledDur > fullDur/2 && cancelledDur > 250*time.Millisecond {
		t.Errorf("cancelled search took %v (full search: %v)", cancelledDur, fullDur)
	}
	switch {
	case err != nil:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("err = %v, want DeadlineExceeded", err)
		}
	default:
		if !res.Partial {
			t.Errorf("interrupted search returned Partial=false after %v (deadline %v)", cancelledDur, deadline)
		}
		// The anytime incumbent must be a valid schedule for the pair.
		if verr := res.Schedule.Validate(&sc, pkg); verr != nil {
			t.Errorf("partial schedule invalid: %v", verr)
		}
		if res.Metrics.EDP <= 0 {
			t.Errorf("partial metrics implausible: %+v", res.Metrics)
		}
	}
}

// TestScheduleCancelEvolutionary drives the GA path through the same
// contract (stop propagates through search.Run and the tree-search
// fallback).
func TestScheduleCancelEvolutionary(t *testing.T) {
	db := costdb.New(maestro.DefaultParams())
	pkg := mcm.HetCB(3, 3, maestro.DefaultDatacenterChiplet())
	sc := smallScenario()
	opts := FastOptions()
	opts.Search = SearchEvolutionary

	obj := slowEDP(200*time.Microsecond, nil)
	if _, err := New(db, opts).Schedule(context.Background(), NewRequest(&sc, pkg, obj)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	res, err := New(db, opts).Schedule(ctx, NewRequest(&sc, pkg, obj))
	if err != nil {
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want DeadlineExceeded", err)
		}
		return
	}
	if !res.Partial {
		t.Error("interrupted evolutionary search returned Partial=false")
	}
	if verr := res.Schedule.Validate(&sc, pkg); verr != nil {
		t.Errorf("partial schedule invalid: %v", verr)
	}
}

// TestScheduleUncancelledCtxBitIdentical: carrying a live (never-fired)
// cancellable context changes nothing — the determinism guarantee of the
// pre-context API holds through the new surface.
func TestScheduleUncancelledCtxBitIdentical(t *testing.T) {
	db := costdb.New(maestro.DefaultParams())
	pkg := mcm.HetSides(3, 3, maestro.DefaultDatacenterChiplet())
	sc := smallScenario()
	opts := FastOptions()

	base, err := New(db, opts).Schedule(context.Background(), NewRequest(&sc, pkg, EDPObjective()))
	if err != nil {
		t.Fatal(err)
	}
	if base.Partial {
		t.Fatal("background-context run reported Partial")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	withCtx, err := New(db, opts).Schedule(ctx, NewRequest(&sc, pkg, EDPObjective()))
	if err != nil {
		t.Fatal(err)
	}
	assertResultsIdentical(t, "uncancelled-ctx", base, withCtx)
	if withCtx.Partial {
		t.Error("uncancelled run reported Partial")
	}
}

// TestScheduleCancelLeaksNoGoroutines: cancelled searches wind their
// worker pools down completely.
func TestScheduleCancelLeaksNoGoroutines(t *testing.T) {
	db := costdb.New(maestro.DefaultParams())
	pkg := mcm.HetSides(3, 3, maestro.DefaultDatacenterChiplet())
	sc := smallScenario()
	opts := FastOptions()
	opts.Workers = 8
	obj := slowEDP(100*time.Microsecond, nil)

	// Warm the cost database outside the measured region.
	if _, err := New(db, opts).Schedule(context.Background(), NewRequest(&sc, pkg, obj)); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 4; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
		_, _ = New(db, opts).Schedule(ctx, NewRequest(&sc, pkg, obj))
		cancel()
	}
	// Settle: helper goroutines exit after forEach drains.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines: %d before cancelled searches, %d after", before, after)
	}
}

// TestProgressCallback: candidate-granularity progress events arrive in
// order, serialized, and converge on the final result's statistics.
func TestProgressCallback(t *testing.T) {
	db := costdb.New(maestro.DefaultParams())
	pkg := mcm.HetCB(3, 3, maestro.DefaultDatacenterChiplet())
	sc := smallScenario()
	opts := FastOptions()
	opts.Workers = 4

	var events []ProgressEvent
	req := NewRequest(&sc, pkg, EDPObjective())
	req.Progress = func(ev ProgressEvent) { events = append(events, ev) } // serialized by contract
	res, err := New(db, opts).Schedule(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no progress events")
	}
	if len(events) != res.Candidates {
		t.Errorf("events = %d, want one per candidate (%d)", len(events), res.Candidates)
	}
	prev := 0
	for i, ev := range events {
		if ev.CandidatesDone != prev+1 {
			t.Errorf("event %d: CandidatesDone = %d, want %d", i, ev.CandidatesDone, prev+1)
		}
		prev = ev.CandidatesDone
		if ev.CandidatesTotal != res.Candidates {
			t.Errorf("event %d: CandidatesTotal = %d, want %d", i, ev.CandidatesTotal, res.Candidates)
		}
		if ev.CacheHitRate < 0 || ev.CacheHitRate > 1 {
			t.Errorf("event %d: CacheHitRate = %v", i, ev.CacheHitRate)
		}
	}
	last := events[len(events)-1]
	if !last.HasIncumbent {
		t.Error("final event has no incumbent")
	}
	if want := EDPObjective().Score(res.Metrics); last.BestScore != want {
		t.Errorf("final incumbent score %v != result score %v", last.BestScore, want)
	}
	if last.WindowEvals != res.WindowEvals || last.UniqueWindows != res.UniqueWindows {
		t.Errorf("final event stats (%d, %d) != result stats (%d, %d)",
			last.WindowEvals, last.UniqueWindows, res.WindowEvals, res.UniqueWindows)
	}
}

// TestRequestOverrides: per-request knobs behave exactly like a
// scheduler configured with those options.
func TestRequestOverrides(t *testing.T) {
	db := costdb.New(maestro.DefaultParams())
	pkg := mcm.HetSides(3, 3, maestro.DefaultDatacenterChiplet())
	sc := smallScenario()

	base := FastOptions()
	override := base
	override.Seed = 7
	override.NSplits = 1
	override.Workers = 2
	want, err := New(db, override).Schedule(context.Background(), NewRequest(&sc, pkg, EDPObjective()))
	if err != nil {
		t.Fatal(err)
	}

	seed, nsplits, workers := int64(7), 1, 2
	req := NewRequest(&sc, pkg, EDPObjective())
	req.Seed = &seed
	req.NSplits = &nsplits
	req.Workers = &workers
	got, err := New(db, base).Schedule(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsIdentical(t, "overrides", want, got)

	// Search-mode override reproduces an evolutionary-configured
	// scheduler too.
	evoOpts := base
	evoOpts.Search = SearchEvolutionary
	wantEvo, err := New(db, evoOpts).Schedule(context.Background(), NewRequest(&sc, pkg, EDPObjective()))
	if err != nil {
		t.Fatal(err)
	}
	mode := SearchEvolutionary
	reqEvo := NewRequest(&sc, pkg, EDPObjective())
	reqEvo.Search = &mode
	gotEvo, err := New(db, base).Schedule(context.Background(), reqEvo)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsIdentical(t, "search-override", wantEvo, gotEvo)
}

// TestRequestValidation: structurally broken requests fail fast.
func TestRequestValidation(t *testing.T) {
	db := costdb.New(maestro.DefaultParams())
	pkg := mcm.HetCB(3, 3, maestro.DefaultDatacenterChiplet())
	sc := smallScenario()
	s := New(db, FastOptions())
	ctx := context.Background()
	if _, err := s.Schedule(ctx, nil); err == nil {
		t.Error("nil request accepted")
	}
	if _, err := s.Schedule(ctx, &Request{MCM: pkg, Objective: EDPObjective()}); err == nil {
		t.Error("request without scenario accepted")
	}
	if _, err := s.Schedule(ctx, &Request{Scenario: &sc, Objective: EDPObjective()}); err == nil {
		t.Error("request without MCM accepted")
	}
	if _, err := s.Schedule(ctx, &Request{Scenario: &sc, MCM: pkg}); err == nil {
		t.Error("request without objective accepted")
	}
}

// TestTreeSearchInteriorStopPoll: once the search has an incumbent, stop
// is polled between leaves too, so a cancelled search does not walk out
// a dead-end region first. The package is a 9-chiplet chain (the only
// 9-chiplet path, found first) plus a 7-chiplet clique hanging off the
// chain's head, where thousands of partial paths never reach 9 chiplets.
func TestTreeSearchInteriorStopPoll(t *testing.T) {
	const n = 16
	adj := make([][]bool, n)
	for i := range adj {
		adj[i] = make([]bool, n)
	}
	link := func(a, b int) { adj[a][b], adj[b][a] = true, true }
	for c := 0; c+1 < 9; c++ {
		link(c, c+1)
	}
	for a := 9; a < n; a++ {
		link(0, a)
		for b := a + 1; b < n; b++ {
			link(a, b)
		}
	}
	plans := []modelPlan{{model: 0, r: layerRange{First: 0, Last: 8}, ends: []int{0, 1, 2, 3, 4, 5, 6, 7, 8}}}
	evalWin := func([]eval.Segment) eval.WindowEval { return eval.WindowEval{LatencySec: 1, EnergyJ: 1} }
	search := func(stop func() bool) treeResult {
		return treeSearch(evalWin, stepTargets(adj, false), plans, EDPObjective(), 1, 100, rand.New(rand.NewSource(1)), stop)
	}

	full := search(nil)
	if full.aborted || full.evals != 1 || full.visits <= 9+stopPollVisits {
		t.Fatalf("uncancelled search: aborted %v, %d evals, %d visits; want one leaf and over %d visits",
			full.aborted, full.evals, full.visits, 9+stopPollVisits)
	}

	// The context is cancelled, but the poll right after the leaf still
	// sees it live (as when cancellation lands just after that poll).
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	polls := 0
	res := search(func() bool {
		polls++
		return polls > 1 && ctx.Err() != nil
	})
	if !res.aborted || !res.found || res.evals != 1 {
		t.Fatalf("cancelled search: aborted %v, found %v, %d evals; want an aborted search keeping its one leaf",
			res.aborted, res.found, res.evals)
	}
	if res.visits > 9+stopPollVisits {
		t.Errorf("cancelled search took %d visits, want at most %d (the leaf's 9 plus one poll period)",
			res.visits, 9+stopPollVisits)
	}
}
