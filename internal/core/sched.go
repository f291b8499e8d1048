package core

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"

	"example.com/scar/internal/eval"
)

// This file is the SCHED engine (Section IV-D): it maps layer segments
// onto physical chiplets. The search space is a forest of scheduling
// trees — every tree is identified by a tuple of subtree root chiplets
// (one per model) and every candidate schedule is a set of
// adjacency-respecting paths, one per model, pairwise disjoint (exclusive
// chiplet occupancy). A constrained DFS enumerates paths per subtree,
// constrained on the chiplets taken by preceding subtrees, exactly as in
// Figure 5.

// modelPlan is one model's segmentation choice inside a window.
type modelPlan struct {
	model int
	r     layerRange
	ends  []int // window-relative inclusive segment ends
}

func (p modelPlan) numSegments() int { return len(p.ends) }

// appendSegments appends the plan's eval Segments along a chiplet path
// (segment q runs on path[q]) to dst.
//
//scar:hotpath
func (p modelPlan) appendSegments(dst []eval.Segment, path []int) []eval.Segment {
	start := 0
	for q, end := range p.ends {
		dst = append(dst, eval.Segment{ //scar:hotalloc callers size dst for every segment up front (the tree walker once per search, evoGenome.decode once per genome), so the append never grows
			Model:   p.model,
			First:   p.r.First + start,
			Last:    p.r.First + end,
			Chiplet: path[q],
		})
		start = end + 1
	}
	return dst
}

// treeResult is the best window schedule found by the tree search.
type treeResult struct {
	segments []eval.Segment
	score    float64
	evals    int
	// visits counts DFS steps: every time a model's path steps onto a
	// chiplet, leaf or not. It is the enumerator's hardware-independent
	// work count.
	visits int
	found  bool
	// aborted marks a search cut short by its stop check with work
	// remaining; segments (when found) is the incumbent at that point.
	aborted bool
}

// stopPollVisits is the interior stop-poll period: once the search has
// an incumbent, stop is polled every stopPollVisits DFS visits as well as
// after every leaf, so dead-end subtrees cannot outrun a deadline. It
// must be a power of two.
const stopPollVisits = 1024

// stepTargets lists, in ascending order, the chiplets a path may step to
// from each chiplet: its interposer neighbors, or with freePlacement
// every other chiplet (the mapping-locality ablation).
func stepTargets(adj [][]bool, freePlacement bool) [][]int {
	steps := make([][]int, len(adj))
	for c := range adj {
		for next := range adj[c] {
			if (freePlacement || adj[c][next]) && next != c {
				steps[c] = append(steps[c], next)
			}
		}
	}
	return steps
}

// treeSearch explores up to maxTrees scheduling trees with a total
// evaluation budget, returning the best window schedule under the
// objective. Plans are ordered internally by descending segment count so
// the most constrained subtree claims chiplets first. Paths step from
// each chiplet to its steps entry (see stepTargets), which carries the
// package shape.
//
// The search itself is serial and self-contained — evalWin scores leaf
// windows (in a run it is the memoizing run.window bound to this task's
// worker scratch; it must not retain the segment slice, which the search
// mutates while backtracking), steps is read-only, rng is the task's
// private stream — which is what lets the scheduler fan many treeSearch
// calls out across workers.
//
// stop (optional) is polled after every leaf evaluation and, once the
// search has an incumbent, every stopPollVisits DFS visits: once it
// reports true the search unwinds and returns its incumbent with aborted
// set. The first reachable leaf is always evaluated before stop is
// honored, so a cancelled search still yields a feasible mapping whenever
// its first DFS descent finds one — the anytime floor the scheduler's
// partial results build on. A nil or never-true stop leaves the search
// byte-for-byte identical to the unstoppable version.
func treeSearch(
	evalWin func(segs []eval.Segment) eval.WindowEval, steps [][]int,
	plans []modelPlan, obj Objective, maxTrees, budget int, rng *rand.Rand, stop func() bool,
) treeResult {
	ordered := make([]modelPlan, len(plans))
	copy(ordered, plans)
	sort.SliceStable(ordered, func(i, j int) bool {
		return ordered[i].numSegments() > ordered[j].numSegments()
	})

	tuples := rootTuples(len(steps), len(ordered), maxTrees, rng)
	if len(tuples) == 0 {
		return treeResult{}
	}
	perTree := budget / len(tuples)
	if perTree < 4 {
		perTree = 4
	}

	w := newTreeWalker(evalWin, stop, obj, ordered, steps, budget)
	for _, roots := range tuples {
		if w.res.evals >= budget || w.res.aborted {
			break
		}
		w.tree(roots, perTree)
	}
	if w.res.found {
		w.res.segments = w.best
	}
	return w.res
}

// treeWalker is the DFS state of one treeSearch call. Its buffers are
// sized once by newTreeWalker, so the walk allocates nothing per visit or
// per leaf.
//
// The walk evaluates the leaves of the plain constrained DFS (Figure 5)
// in the same order; it only skips subtrees that hold no leaf. Step
// targets come in ascending order, and a forward check guards every
// step:
//
//   - no path steps onto a root of the current tree. An earlier model's
//     root (or the model's own) is on a path already; a later model's
//     root would leave that model without a start, so the subtree is
//     dead. Roots are therefore marked taken for the whole tree.
//   - a path that still needs to grow past the next chiplet only steps
//     there if that chiplet has a step target left (open); a model
//     whose path needs two or more chiplets only starts if its root is
//     open.
//
// Budgets and the abort flag only change at leaves, so skipping dead
// subtrees changes neither which leaves are evaluated nor their order.
type treeWalker struct {
	evalWin func(segs []eval.Segment) eval.WindowEval
	stop    func() bool
	obj     Objective
	plans   []modelPlan // descending segment count
	budget  int

	steps [][]int        // ascending step targets of each chiplet
	taken []bool         // chiplets on the current paths, and every root of the current tree
	roots []int          // the current tree's root tuple, one per plan
	paths [][]int        // per-model path buffer, one slot per segment
	segs  []eval.Segment // segments of the completed paths, model by model
	best  []eval.Segment // the incumbent's segments

	// left is the current tree's remaining leaf budget; it is zeroed
	// when the whole search must end (evaluation budget spent or stop
	// reported), so one comparison gates every DFS step.
	left int
	res  treeResult
}

func newTreeWalker(
	evalWin func(segs []eval.Segment) eval.WindowEval, stop func() bool, obj Objective,
	plans []modelPlan, steps [][]int, budget int,
) *treeWalker {
	chiplets := len(steps)
	w := &treeWalker{
		evalWin: evalWin,
		stop:    stop,
		obj:     obj,
		plans:   plans,
		budget:  budget,
		steps:   steps,
		taken:   make([]bool, chiplets),
		paths:   make([][]int, len(plans)),
		res:     treeResult{score: math.Inf(1)},
	}
	total := 0
	for k, p := range plans {
		w.paths[k] = make([]int, p.numSegments())
		total += p.numSegments()
	}
	w.segs = make([]eval.Segment, 0, total)
	w.best = make([]eval.Segment, total)
	return w
}

// tree walks the scheduling tree rooted at roots (one chiplet per plan)
// with a budget of leaves.
func (w *treeWalker) tree(roots []int, leaves int) {
	w.roots = roots
	for _, c := range roots {
		w.taken[c] = true
	}
	w.left = leaves
	w.assign(0)
	for _, c := range roots {
		w.taken[c] = false
	}
}

// assign starts model k's path at its root, or evaluates the leaf once
// every model has a path. Model k's root is never on an earlier path:
// no path steps onto a root.
//
//scar:hotpath
func (w *treeWalker) assign(k int) {
	if k == len(w.plans) {
		w.leaf()
		return
	}
	root := w.roots[k]
	if len(w.paths[k]) > 1 && !w.open(root) {
		return
	}
	w.step(k, 0, root)
}

// step puts cur at depth d of model k's path, then either hands over to
// model k+1 (the path is complete) or extends the path to each free step
// target in ascending order.
//
//scar:hotpath
func (w *treeWalker) step(k, d, cur int) {
	w.res.visits++
	if w.res.found && w.res.visits&(stopPollVisits-1) == 0 {
		w.poll()
		if w.left <= 0 {
			return
		}
	}
	path := w.paths[k]
	path[d] = cur
	w.taken[cur] = true
	if d+1 == len(path) {
		n := len(w.segs)
		w.segs = w.plans[k].appendSegments(w.segs, path)
		w.assign(k + 1)
		w.segs = w.segs[:n]
	} else {
		for _, next := range w.steps[cur] {
			if w.left <= 0 {
				break
			}
			if !w.taken[next] && (d+2 == len(path) || w.open(next)) {
				w.step(k, d+1, next)
			}
		}
	}
	w.taken[cur] = d == 0 // a root stays taken for the whole tree
}

// leaf evaluates the complete window in segs and keeps it if it improves
// on the incumbent.
//
//scar:hotpath
func (w *treeWalker) leaf() {
	score := w.obj.windowScore(w.evalWin(w.segs)) //scar:hotalloc leaf callback: the run's memoizing window evaluator allocates only when its cache table doubles or its key arena takes a new chunk, never per visit or per leaf
	w.res.evals++
	w.left--
	if score < w.res.score {
		// Snapshot only improvements: segs is rewritten as the DFS
		// backtracks.
		w.res.score = score
		copy(w.best, w.segs)
		w.res.found = true
	}
	if w.res.evals >= w.budget {
		w.left = 0
	}
	w.poll()
}

// open reports whether c has a step target left: a chiplet that is
// neither on a path nor a root.
//
//scar:hotpath
func (w *treeWalker) open(c int) bool {
	for _, next := range w.steps[c] {
		if !w.taken[next] {
			return true
		}
	}
	return false
}

// poll consults stop and, when it reports true, aborts the search.
//
//scar:hotpath
func (w *treeWalker) poll() {
	if w.stop != nil && w.stop() { //scar:hotalloc stop callback: the run's cancellation check is an atomic load plus a non-blocking receive on ctx.Done, which allocates at most once per context (the lazily made Done channel)
		w.res.aborted = true
		w.left = 0
	}
}

// rootTuples generates up to maxTrees injective chiplet tuples of the
// given arity: the canonical ascending tuple first (so small searches are
// stable) followed by deterministic seeded samples for coverage of the
// forest. Rejected samples cost no allocation: the seen-set is probed
// with a key built in a reused buffer, and a tuple is copied only once
// accepted.
func rootTuples(chiplets, arity, maxTrees int, rng *rand.Rand) [][]int {
	if arity > chiplets || arity == 0 {
		return nil
	}
	var out [][]int
	seen := make(map[string]bool, max(maxTrees, 1))
	var key []byte
	add := func(t []int) {
		key = key[:0]
		for _, c := range t {
			key = binary.AppendUvarint(key, uint64(c))
		}
		if seen[string(key)] {
			return
		}
		seen[string(key)] = true
		out = append(out, append([]int(nil), t...))
	}
	perm := make([]int, chiplets)
	for i := range perm {
		perm[i] = i
	}
	add(perm[:arity])
	// Sampling with rejection; the attempt bound keeps termination
	// certain when maxTrees approaches the tuple-space size.
	attempts := maxTrees * 20
	swap := func(i, j int) { perm[i], perm[j] = perm[j], perm[i] }
	for len(out) < maxTrees && attempts > 0 {
		attempts--
		for i := range perm {
			perm[i] = i
		}
		rng.Shuffle(chiplets, swap)
		add(perm[:arity])
	}
	return out
}
