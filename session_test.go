package scar_test

import (
	"context"
	"reflect"
	"testing"
	"time"

	scar "example.com/scar"
)

// TestRequestAndSessionBitIdentical: an uncancelled Schedule(ctx, req)
// and the Session form return bit-identical results across scenarios.
func TestRequestAndSessionBitIdentical(t *testing.T) {
	sched := scar.NewScheduler(scar.FastOptions())
	for _, n := range []int{1, 6, 9} {
		sc, err := scar.ScenarioByNumber(n)
		if err != nil {
			t.Fatal(err)
		}
		profile := scar.DatacenterChiplet()
		if n >= 6 {
			profile = scar.EdgeChiplet()
		}
		pkg, err := scar.MCMByName("het-sides", 3, 3, profile)
		if err != nil {
			t.Fatal(err)
		}

		req, err := sched.Schedule(context.Background(), scar.NewRequest(&sc, pkg, scar.EDPObjective()))
		if err != nil {
			t.Fatalf("scenario %d: request API: %v", n, err)
		}
		ses, err := sched.NewSession(&sc, pkg)
		if err != nil {
			t.Fatal(err)
		}
		viaSession, err := ses.Schedule(context.Background(), scar.EDPObjective())
		if err != nil {
			t.Fatalf("scenario %d: session API: %v", n, err)
		}

		for label, res := range map[string]*scar.Result{"request": req, "session": viaSession} {
			if res.Partial {
				t.Errorf("scenario %d: %s API reported Partial without cancellation", n, label)
			}
		}
		if !reflect.DeepEqual(req.Schedule, viaSession.Schedule) {
			t.Errorf("scenario %d: session API schedule differs from request API", n)
		}
		if !reflect.DeepEqual(req.Metrics, viaSession.Metrics) {
			t.Errorf("scenario %d: session API metrics differ: %+v vs %+v", n, req.Metrics, viaSession.Metrics)
		}
		if req.WindowEvals != viaSession.WindowEvals || req.UniqueWindows != viaSession.UniqueWindows {
			t.Errorf("scenario %d: session API stats differ: (%d,%d) vs (%d,%d)", n,
				req.WindowEvals, req.UniqueWindows, viaSession.WindowEvals, viaSession.UniqueWindows)
		}
	}
}

// TestSessionUnifiesPerPairSurface: every per-pair operation runs on one
// Session's shared compiled state and agrees with the search's results.
func TestSessionUnifiesPerPairSurface(t *testing.T) {
	sched := scar.NewScheduler(scar.FastOptions())
	sc, _ := scar.ScenarioByNumber(1)
	pkg, _ := scar.MCMByName("simba-nvd", 3, 3, scar.DatacenterChiplet())
	ses, err := sched.NewSession(&sc, pkg)
	if err != nil {
		t.Fatal(err)
	}

	res, err := ses.Schedule(context.Background(), scar.LatencyObjective())
	if err != nil {
		t.Fatal(err)
	}

	// Evaluate agrees with the search's own metrics.
	m, err := ses.Evaluate(res.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if m.EDP != res.Metrics.EDP {
		t.Errorf("session Evaluate EDP %v != search %v", m.EDP, res.Metrics.EDP)
	}

	// The baselines run on the session state.
	_, stand, err := ses.Standalone()
	if err != nil {
		t.Fatal(err)
	}
	_, nb, err := ses.NNBaton()
	if err != nil {
		t.Fatal(err)
	}
	if stand.LatencySec <= 0 || nb.LatencySec <= 0 {
		t.Errorf("baselines produced non-positive latency: standalone %+v, NN-baton %+v", stand, nb)
	}

	// LinkLoads and Timeline run on the session state.
	var total int64
	for _, w := range res.Schedule.Windows {
		for _, bytes := range ses.LinkLoads(w) {
			total += bytes
		}
	}
	if total == 0 {
		t.Error("no NoP traffic reported by session LinkLoads on a pipelined latency schedule")
	}
	if tl := ses.Timeline(res.Schedule); len(tl.Spans) == 0 {
		t.Error("session Timeline has no spans")
	}

	// Mismatched request inputs are rejected.
	other, _ := scar.ScenarioByNumber(2)
	if _, err := ses.ScheduleRequest(context.Background(), &scar.Request{
		Scenario: &other, Objective: scar.EDPObjective(),
	}); err == nil {
		t.Error("session accepted a request for a different scenario")
	}
}

// TestSessionScheduleHonorsDeadline: the Session path inherits anytime
// cancellation.
func TestSessionScheduleHonorsDeadline(t *testing.T) {
	sched := scar.NewScheduler(scar.DefaultOptions())
	sc, _ := scar.ScenarioByNumber(6)
	pkg, _ := scar.MCMByName("het-sides", 3, 3, scar.EdgeChiplet())
	ses, err := sched.NewSession(&sc, pkg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	res, err := ses.Schedule(ctx, scar.EDPObjective())
	if err == nil && !res.Partial {
		t.Error("1ms deadline returned a full result on a paper-budget search")
	}
}
