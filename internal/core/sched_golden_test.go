package core

import (
	"context"
	"crypto/sha256"
	"fmt"
	"testing"

	"example.com/scar/internal/costdb"
	"example.com/scar/internal/maestro"
	"example.com/scar/internal/mcm"
	"example.com/scar/internal/models"
	"example.com/scar/internal/workload"
)

// resultDigest fingerprints everything a search decides: the schedule's
// segments, the full metrics, the explored candidate cloud and the search
// statistics. %#v prints floats in their shortest exact form and maps in
// key order, so equal digests mean bit-identical results. TreeVisits is
// left out: pruning dead subtrees changes it by design, and
// TestTreeSearchVisitCount pins it.
func resultDigest(r *Result) string {
	s := fmt.Sprintf("%#v|%#v|%#v|splits=%d|evals=%d|unique=%d|cands=%d|partial=%v",
		*r.Schedule, r.Metrics, r.Explored, r.Splits, r.WindowEvals, r.UniqueWindows, r.Candidates, r.Partial)
	return fmt.Sprintf("%x", sha256.Sum256([]byte(s)))[:16]
}

// goldenCase is one pinned search problem under DefaultOptions.
type goldenCase struct {
	name   string
	sc     func() (workload.Scenario, error)
	pkg    func() *mcm.MCM
	obj    Objective
	digest string
}

// goldenCases are the SCHED replay contract: scenarios 1-10 on Het-Sides
// 4x4 under EDP and on Het-CB 4x4 under latency, plus the Figure 2
// motivational package. The digests were recorded with the unpruned
// closure-based tree search; any enumerator must reproduce them exactly.
func goldenCases() []goldenCase {
	dc := maestro.DefaultDatacenterChiplet()
	scenario := func(n int) func() (workload.Scenario, error) {
		return func() (workload.Scenario, error) { return models.ScenarioByNumber(n) }
	}
	sides := func() *mcm.MCM { return mcm.HetSides(4, 4, dc) }
	cb := func() *mcm.MCM { return mcm.HetCB(4, 4, dc) }
	sidesEDP := []string{
		"3359440d03eabb88", "9471ed90d5d4aba4", "3852458361be267b", "fc27ae406961dee1", "78ab6e9d4fe39e43",
		"4cff1592b5cb5aba", "b366d2b845c8da61", "f8ef4a0bdea231ec", "e5427408ce089086", "1ca97124c76db654",
	}
	cbLatency := []string{
		"a97805b114c69ddd", "5271572ea5676542", "9131efe2001d88ce", "ab8ffbe9625b1b48", "aabe6438be6173c1",
		"a655006eff350206", "46fe1a4099de5fd4", "157918ccc40af255", "9aa132aa1cd3fdfc", "accb8217a72451f2",
	}
	var cs []goldenCase
	for i := range sidesEDP {
		cs = append(cs, goldenCase{fmt.Sprintf("sc%d/het-sides-4x4/edp", i+1), scenario(i + 1), sides, EDPObjective(), sidesEDP[i]})
	}
	for i := range cbLatency {
		cs = append(cs, goldenCase{fmt.Sprintf("sc%d/het-cb-4x4/latency", i+1), scenario(i + 1), cb, LatencyObjective(), cbLatency[i]})
	}
	cs = append(cs, goldenCase{
		"motivational/motivational-2x2/edp",
		func() (workload.Scenario, error) { return models.MotivationalWorkload(), nil },
		func() *mcm.MCM { return mcm.Motivational2x2(dc) },
		EDPObjective(), "f9b84779b7ab9bd7",
	})
	return cs
}

// TestSchedGoldenEquivalence pins the full Result of every golden case at
// Workers=1 and Workers=4: the tree search must evaluate the same leaves
// in the same order however it prunes, orders or buffers its walk.
func TestSchedGoldenEquivalence(t *testing.T) {
	db := costdb.New(maestro.DefaultParams())
	for _, c := range goldenCases() {
		sc, err := c.sc()
		if err != nil {
			t.Fatal(err)
		}
		pkg := c.pkg()
		for _, workers := range []int{1, 4} {
			opts := DefaultOptions()
			opts.Workers = workers
			res, err := New(db, opts).Schedule(context.Background(), NewRequest(&sc, pkg, c.obj))
			if err != nil {
				t.Fatalf("%s workers=%d: %v", c.name, workers, err)
			}
			if got := resultDigest(res); got != c.digest {
				t.Errorf("%s workers=%d: digest %s, want %s (evals %d, unique %d, candidates %d)",
					c.name, workers, got, c.digest, res.WindowEvals, res.UniqueWindows, res.Candidates)
			}
		}
	}
}
