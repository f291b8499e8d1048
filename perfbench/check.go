package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"example.com/scar/internal/config"
	"example.com/scar/internal/core"
	"example.com/scar/internal/costdb"
	"example.com/scar/internal/eval"
	"example.com/scar/internal/maestro"
	"example.com/scar/internal/mcm"
	"example.com/scar/internal/models"
	"example.com/scar/internal/workload"
)

// problem is one scheduling problem as a client states it: a built-in
// Table III scenario or a custom workload description, a Figure 6
// package pattern and an objective.
type problem struct {
	id        string          // stable label; custom workloads that differ only in name share one
	scenario  int             // Table III scenario (1-10) when workload is nil
	workload  json.RawMessage // custom workload in the config format
	pattern   string
	w, h      int
	objective string
}

// profile mirrors the daemon's documented default: edge chiplets for the
// AR/VR scenarios 6-10, datacenter chiplets otherwise.
func (p problem) profile() string {
	if p.workload == nil && p.scenario >= 6 {
		return "edge"
	}
	return "datacenter"
}

// build materializes the problem from its inputs with the library's
// constructors, independently of the daemon's request resolution.
func (p problem) build() (*workload.Scenario, *mcm.MCM, core.Objective, error) {
	var sc workload.Scenario
	var err error
	if p.workload != nil {
		sc, err = config.ParseWorkload(p.workload)
	} else {
		sc, err = models.ScenarioByNumber(p.scenario)
	}
	if err != nil {
		return nil, nil, core.Objective{}, err
	}
	spec := maestro.DefaultDatacenterChiplet()
	if p.profile() == "edge" {
		spec = maestro.DefaultEdgeChiplet()
	}
	m, err := mcm.ByName(p.pattern, p.w, p.h, spec)
	if err != nil {
		return nil, nil, core.Objective{}, err
	}
	obj, err := core.ObjectiveByName(p.objective)
	if err != nil {
		return nil, nil, core.Objective{}, err
	}
	return &sc, m, obj, nil
}

// body is the POST /schedule request for the problem. The schedule is
// always requested so every answer can be re-evaluated.
func (p problem) body() []byte {
	req := map[string]any{
		"pattern":          p.pattern,
		"width":            p.w,
		"height":           p.h,
		"objective":        p.objective,
		"include_schedule": true,
	}
	if p.workload != nil {
		req["workload_json"] = p.workload
	} else {
		req["scenario"] = p.scenario
	}
	b, _ := json.Marshal(req) // plain values always marshal
	return b
}

// answer is the part of a /schedule response the checks read.
type answer struct {
	Cached    bool           `json:"cached"`
	Partial   bool           `json:"partial"`
	Metrics   eval.Metrics   `json:"metrics"`
	Schedule  *eval.Schedule `json:"schedule"`
	ElapsedMs float64        `json:"elapsed_ms"`
}

// checker re-evaluates answers on its own cost database, so a fault in
// the program's shared cost tables cannot hide itself.
type checker struct {
	db       *costdb.DB
	evs      map[string]*eval.Evaluator
	verified map[string]bool // canonical answers already re-evaluated
}

func newChecker() *checker {
	return &checker{
		db:       costdb.New(maestro.DefaultParams()),
		evs:      map[string]*eval.Evaluator{},
		verified: map[string]bool{},
	}
}

// relTol is the agreement demanded between a reported metric and its
// re-evaluation.
const relTol = 1e-9

// verify checks one schedule answer: complete (not partial), valid for
// the problem, and re-evaluating to the reported metrics.
func (c *checker) verify(p problem, sched *eval.Schedule, partial bool, got eval.Metrics) error {
	if partial {
		return fmt.Errorf("%s: partial answer", p.id)
	}
	if sched == nil {
		return fmt.Errorf("%s: answer carries no schedule", p.id)
	}
	ev, ok := c.evs[p.id]
	if !ok {
		sc, m, _, err := p.build()
		if err != nil {
			return fmt.Errorf("%s: %w", p.id, err)
		}
		ev = eval.New(c.db, m, sc, eval.DefaultOptions())
		c.evs[p.id] = ev
	}
	want, err := ev.Evaluate(sched)
	if err != nil {
		return fmt.Errorf("%s: schedule rejected: %w", p.id, err)
	}
	return sameMetrics(want, got)
}

// verifyBody decodes a /schedule response body and verifies it. Bodies
// equal to one already verified (ignoring the per-call key and timing
// fields) are not re-evaluated again.
func (c *checker) verifyBody(p problem, body []byte) error {
	canon := string(canonical(body))
	if c.verified[canon] {
		return nil
	}
	var a answer
	if err := json.Unmarshal(body, &a); err != nil {
		return fmt.Errorf("%s: bad response: %w", p.id, err)
	}
	if err := c.verify(p, a.Schedule, a.Partial, a.Metrics); err != nil {
		return err
	}
	c.verified[canon] = true
	return nil
}

// canonical strips the fields of a /schedule body that legitimately
// differ between two answers to the same problem: the per-call wall time
// (elapsed_ms, the last field) and the cache key line, which hashes a
// custom workload's bytes (its name included).
func canonical(body []byte) []byte {
	body = untimed(body)
	if i := bytes.Index(body, []byte(`"key"`)); i >= 0 {
		if j := bytes.IndexByte(body[i:], '\n'); j >= 0 {
			body = append(append([]byte(nil), body[:i]...), body[i+j+1:]...)
		}
	}
	return body
}

// untimed is the body without its trailing per-call wall time
// (elapsed_ms, the last field of a /schedule answer).
func untimed(body []byte) []byte {
	if i := bytes.Index(body, []byte(`"elapsed_ms"`)); i >= 0 {
		return body[:i]
	}
	return body
}

func sameMetrics(want, got eval.Metrics) error {
	if err := near("latency", want.LatencySec, got.LatencySec); err != nil {
		return err
	}
	if err := near("energy", want.EnergyJ, got.EnergyJ); err != nil {
		return err
	}
	if err := near("edp", want.EDP, got.EDP); err != nil {
		return err
	}
	if len(want.Windows) != len(got.Windows) {
		return fmt.Errorf("%d windows reported, %d re-evaluated", len(got.Windows), len(want.Windows))
	}
	for i := range want.Windows {
		if err := near(fmt.Sprintf("window %d latency", i), want.Windows[i].LatencySec, got.Windows[i].LatencySec); err != nil {
			return err
		}
		if err := near(fmt.Sprintf("window %d energy", i), want.Windows[i].EnergyJ, got.Windows[i].EnergyJ); err != nil {
			return err
		}
	}
	if len(want.ModelLatency) != len(got.ModelLatency) {
		return fmt.Errorf("%d model latencies reported, %d re-evaluated", len(got.ModelLatency), len(want.ModelLatency))
	}
	for mi, w := range want.ModelLatency {
		if err := near(fmt.Sprintf("model %d latency", mi), w, got.ModelLatency[mi]); err != nil {
			return err
		}
	}
	return nil
}

func near(what string, want, got float64) error {
	if math.Abs(want-got) <= relTol*math.Max(math.Abs(want), math.Abs(got)) {
		return nil
	}
	return fmt.Errorf("%s: reported %.17g, re-evaluated %.17g", what, got, want)
}
