package main

import (
	"context"
	"encoding/json"
	"testing"

	"example.com/scar/internal/core"
	"example.com/scar/internal/costdb"
	"example.com/scar/internal/maestro"
	"example.com/scar/internal/serve"
)

// TestCorruptedAnswerCaught shows the checks reject a corrupted answer:
// a metric off by one part in a million, a schedule moved to another
// chiplet, a partial answer, and a hit whose body differs from its
// reference.
func TestCorruptedAnswerCaught(t *testing.T) {
	p := problem{id: "sc10/het-sides-2x2/edp", scenario: 10, pattern: "het-sides", w: 2, h: 2, objective: "edp"}
	svc := serve.NewWithDB(costdb.New(maestro.DefaultParams()), core.FastOptions())
	d, err := startDaemon(svc, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	status, body, err := d.post(context.Background(), "/schedule", p.body())
	if err != nil || status != 200 {
		t.Fatalf("POST /schedule: status %d: %v", status, err)
	}
	chk := newChecker()
	if err := chk.verifyBody(p, body); err != nil {
		t.Fatalf("the daemon's own answer fails the check: %v", err)
	}

	var a answer
	if err := json.Unmarshal(body, &a); err != nil {
		t.Fatal(err)
	}
	if err := chk.verify(p, a.Schedule, true, a.Metrics); err == nil {
		t.Error("a partial answer passed")
	}
	bad := a.Metrics
	bad.LatencySec *= 1 + 1e-6
	if err := chk.verify(p, a.Schedule, false, bad); err == nil {
		t.Error("a latency off by 1e-6 relative passed")
	}
	moved := false
	for wi, w := range a.Schedule.Windows {
		for si, seg := range w.Segments {
			if !moved {
				a.Schedule.Windows[wi].Segments[si].Chiplet = (seg.Chiplet + 1) % (p.w * p.h)
				moved = true
			}
		}
	}
	if err := chk.verify(p, a.Schedule, false, a.Metrics); err == nil {
		t.Error("a schedule moved to another chiplet passed with the original metrics")
	}

	// A hit is compared with its reference answer, per-call time aside.
	_, again, err := d.post(context.Background(), "/schedule", p.body())
	if err != nil {
		t.Fatal(err)
	}
	var hit answer
	if err := json.Unmarshal(again, &hit); err != nil || !hit.Cached {
		t.Fatalf("second request was not a cache hit: %v", err)
	}
	_, ref, _ := d.post(context.Background(), "/schedule", p.body())
	if string(untimed(again)) != string(untimed(ref)) {
		t.Fatal("two hits on one key differ beyond elapsed_ms")
	}
	corrupt := []byte(string(again))
	i := len(untimed(corrupt)) - 40
	corrupt[i] ^= 1
	if string(untimed(corrupt)) == string(untimed(ref)) {
		t.Error("a hit with a flipped byte matched its reference")
	}
}
