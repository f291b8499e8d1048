package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"example.com/scar/internal/costdb"
	"example.com/scar/internal/eval"
	"example.com/scar/internal/maestro"
	"example.com/scar/internal/mcm"
	"example.com/scar/internal/models"
)

// referenceTreeSearch is the textbook constrained DFS of Figure 5 with
// no pruning: every model's path walks every free neighbor, and dead
// subtrees are discovered by walking them. It is the oracle for the
// pruned walker, which must evaluate exactly its leaves in exactly its
// order.
func referenceTreeSearch(
	evalWin func(segs []eval.Segment) eval.WindowEval, adj [][]bool, chiplets int,
	plans []modelPlan, obj Objective, maxTrees, budget int, rng *rand.Rand, freePlacement bool,
) treeResult {
	ordered := append([]modelPlan(nil), plans...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].numSegments() > ordered[j].numSegments() })
	tuples := rootTuples(chiplets, len(ordered), maxTrees, rng)
	if len(tuples) == 0 {
		return treeResult{}
	}
	perTree := max(budget/len(tuples), 4)
	res := treeResult{score: math.Inf(1)}
	used := make([]bool, chiplets)
	var segs []eval.Segment
	for _, roots := range tuples {
		if res.evals >= budget {
			break
		}
		left := perTree
		var assign func(k int)
		assign = func(k int) {
			if left <= 0 || res.evals >= budget {
				return
			}
			if k == len(ordered) {
				we := evalWin(segs)
				res.evals++
				left--
				if score := obj.windowScore(we); score < res.score {
					res.score, res.found = score, true
					res.segments = append([]eval.Segment(nil), segs...)
				}
				return
			}
			if used[roots[k]] {
				return
			}
			var path []int
			var dfs func(cur int)
			dfs = func(cur int) {
				if left <= 0 {
					return
				}
				used[cur] = true
				path = append(path, cur)
				if len(path) == ordered[k].numSegments() {
					n := len(segs)
					segs = ordered[k].appendSegments(segs, path)
					assign(k + 1)
					segs = segs[:n]
				} else {
					for next := range adj[cur] {
						if (freePlacement || adj[cur][next]) && !used[next] && next != cur {
							dfs(next)
						}
					}
				}
				path = path[:len(path)-1]
				used[cur] = false
			}
			dfs(roots[k])
		}
		assign(0)
	}
	return res
}

// recordingEval scores a window by a deterministic hash of its mapping
// and logs every leaf it is asked for, in order.
func recordingEval(log *[]string) func(segs []eval.Segment) eval.WindowEval {
	return func(segs []eval.Segment) eval.WindowEval {
		h := 17
		for _, s := range segs {
			h = (h*31 + s.Model*7 + s.First*3 + s.Chiplet) % 1000003
		}
		*log = append(*log, fmt.Sprint(segs))
		return eval.WindowEval{LatencySec: float64(h%997 + 1), EnergyJ: float64(h%89 + 1)}
	}
}

// randomAdjacency is a symmetric random graph over n chiplets.
func randomAdjacency(rng *rand.Rand, n int, p float64) [][]bool {
	adj := make([][]bool, n)
	for i := range adj {
		adj[i] = make([]bool, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				adj[i][j], adj[j][i] = true, true
			}
		}
	}
	return adj
}

// TestTreeSearchMatchesReferenceDFS: on random packages (mesh, triangular
// and random graphs, with and without free placement), random plans and
// budgets from starved to generous, the walker evaluates the reference
// DFS's leaves in the same order and returns the same result.
func TestTreeSearchMatchesReferenceDFS(t *testing.T) {
	dc := maestro.DefaultDatacenterChiplet()
	for seed := int64(0); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var adj [][]bool
		switch seed % 3 {
		case 0:
			adj = mcm.HetSides(2+rng.Intn(3), 2+rng.Intn(2), dc).AdjacencyMatrix()
		case 1:
			adj = mcm.HetT(3, 2+rng.Intn(2), dc).AdjacencyMatrix()
		default:
			adj = randomAdjacency(rng, 5+rng.Intn(6), 0.2+0.5*rng.Float64())
		}
		chiplets := len(adj)
		free := seed%5 == 4
		var plans []modelPlan
		room := chiplets
		for m := 0; m < 1+rng.Intn(4) && room > 0; m++ {
			n := 1 + rng.Intn(min(room, 5))
			room -= n
			ends := make([]int, n)
			for q := range ends {
				ends[q] = 2*q + rng.Intn(2)
			}
			plans = append(plans, modelPlan{model: m, r: layerRange{First: m, Last: m + ends[n-1]}, ends: ends})
		}
		maxTrees := 1 + rng.Intn(12)
		budget := []int{1, 5, 40, 2000}[rng.Intn(4)]
		label := fmt.Sprintf("seed %d (chiplets %d, plans %d, trees %d, budget %d, free %v)",
			seed, chiplets, len(plans), maxTrees, budget, free)

		var wantLog, gotLog []string
		want := referenceTreeSearch(recordingEval(&wantLog), adj, chiplets, plans, EDPObjective(),
			maxTrees, budget, rand.New(rand.NewSource(seed)), free)
		got := treeSearch(recordingEval(&gotLog), stepTargets(adj, free), plans, EDPObjective(),
			maxTrees, budget, rand.New(rand.NewSource(seed)), nil)
		if !reflect.DeepEqual(gotLog, wantLog) {
			t.Fatalf("%s: leaf sequence differs: %d leaves, want %d", label, len(gotLog), len(wantLog))
		}
		got.visits = 0
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: result %+v, want %+v", label, got, want)
		}
	}
}

// TestTreeSearchVisitCount pins the enumerator's hardware-independent
// work count on scenario 6, Het-Sides 4x4, latency objective, under
// DefaultOptions. The unpruned closure DFS this walker replaced stepped
// onto 981,866 chiplets here (991,292 DFS calls, counting calls that
// returned at once on a spent tree budget); the walker takes 181,509
// steps, 5.4x fewer, for the same 18,003 window evaluations. A change
// here means the walk's pruning or order changed.
func TestTreeSearchVisitCount(t *testing.T) {
	db := costdb.New(maestro.DefaultParams())
	sc, err := models.ScenarioByNumber(6)
	if err != nil {
		t.Fatal(err)
	}
	pkg := mcm.HetSides(4, 4, maestro.DefaultDatacenterChiplet())
	res, err := New(db, DefaultOptions()).Schedule(context.Background(), NewRequest(&sc, pkg, LatencyObjective()))
	if err != nil {
		t.Fatal(err)
	}
	if res.TreeVisits != 181509 || res.WindowEvals != 18003 {
		t.Errorf("tree visits %d, window evals %d; want 181509, 18003", res.TreeVisits, res.WindowEvals)
	}
}

// TestTreeSearchAllocsIndependentOfBudget: with a non-allocating leaf
// callback, a search allocates the same at a 10x larger budget, so
// every allocation is setup (plan order, root tuples, walker buffers)
// and none is per visit or per leaf.
func TestTreeSearchAllocsIndependentOfBudget(t *testing.T) {
	steps := stepTargets(mcm.HetSides(4, 4, maestro.DefaultDatacenterChiplet()).AdjacencyMatrix(), false)
	plans := []modelPlan{
		{model: 0, r: layerRange{First: 0, Last: 4}, ends: []int{0, 1, 2, 3, 4}},
		{model: 1, r: layerRange{First: 0, Last: 5}, ends: []int{1, 3, 5}},
		{model: 2, r: layerRange{First: 0, Last: 1}, ends: []int{0, 1}},
	}
	evalWin := func(segs []eval.Segment) eval.WindowEval {
		return eval.WindowEval{LatencySec: float64(segs[0].Chiplet + segs[len(segs)-1].Chiplet + 1), EnergyJ: 1}
	}
	stop := func() bool { return false }
	search := func(budget int) treeResult {
		return treeSearch(evalWin, steps, plans, EDPObjective(), 8, budget, rand.New(rand.NewSource(3)), stop)
	}
	small, large := search(60), search(600)
	if large.evals <= small.evals || large.visits <= small.visits {
		t.Fatalf("budgets do not change the work: evals %d vs %d, visits %d vs %d",
			small.evals, large.evals, small.visits, large.visits)
	}
	smallAllocs := testing.AllocsPerRun(20, func() { search(60) })
	largeAllocs := testing.AllocsPerRun(20, func() { search(600) })
	if smallAllocs != largeAllocs {
		t.Errorf("allocs/search = %v at budget 60 (%d visits) but %v at budget 600 (%d visits)",
			smallAllocs, small.visits, largeAllocs, large.visits)
	}
}

// BenchmarkTreeSearch is the cold search the SCHED enumerator dominates:
// scenario 6 on Het-Sides 4x4, latency objective, DefaultOptions on one
// worker, over a warm cost database.
func BenchmarkTreeSearch(b *testing.B) {
	db := costdb.New(maestro.DefaultParams())
	sc, err := models.ScenarioByNumber(6)
	if err != nil {
		b.Fatal(err)
	}
	pkg := mcm.HetSides(4, 4, maestro.DefaultDatacenterChiplet())
	opts := DefaultOptions()
	opts.Workers = 1
	req := NewRequest(&sc, pkg, LatencyObjective())
	if _, err := New(db, opts).Schedule(context.Background(), req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var visits, evals int
	for i := 0; i < b.N; i++ {
		res, err := New(db, opts).Schedule(context.Background(), req)
		if err != nil {
			b.Fatal(err)
		}
		visits += res.TreeVisits
		evals += res.WindowEvals
	}
	b.ReportMetric(float64(visits)/float64(b.N), "visits/op")
	b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
}

// BenchmarkSearch4x4 is the search-4x4 problem set in process: scenarios
// 1-10 on Het-Sides 4x4 under EDP and on Het-CB 4x4 under latency, one op
// scheduling all 20 with DefaultOptions at the default worker count over
// a warm cost database. The tree search's window cache hits about 1% of
// evaluations here, so unique/op tracks evals/op and the cost of a cache
// probe shows directly in ns/op.
func BenchmarkSearch4x4(b *testing.B) {
	db := costdb.New(maestro.DefaultParams())
	dc := maestro.DefaultDatacenterChiplet()
	var reqs []*Request
	for _, v := range []struct {
		pkg *mcm.MCM
		obj Objective
	}{{mcm.HetSides(4, 4, dc), EDPObjective()}, {mcm.HetCB(4, 4, dc), LatencyObjective()}} {
		for n := 1; n <= 10; n++ {
			sc, err := models.ScenarioByNumber(n)
			if err != nil {
				b.Fatal(err)
			}
			reqs = append(reqs, NewRequest(&sc, v.pkg, v.obj))
		}
	}
	s := New(db, DefaultOptions())
	schedule := func() (evals, unique int) {
		for _, req := range reqs {
			res, err := s.Schedule(context.Background(), req)
			if err != nil {
				b.Fatal(err)
			}
			evals += res.WindowEvals
			unique += res.UniqueWindows
		}
		return evals, unique
	}
	schedule()
	b.ReportAllocs()
	b.ResetTimer()
	var evals, unique int
	for i := 0; i < b.N; i++ {
		e, u := schedule()
		evals += e
		unique += u
	}
	b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
	b.ReportMetric(float64(unique)/float64(b.N), "unique/op")
}
