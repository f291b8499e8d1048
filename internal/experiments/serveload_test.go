package experiments

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"
	"time"
)

// TestServeLoadTinyConfig runs the serve-layer load generator at a
// deliberately tiny operating point and checks the structural
// (hardware-independent) properties of the snapshot: all three mixes
// measured, the cache immune to working-set erosion (searches_run == 0
// off the churn mix), error ops confined to the failing-key stream,
// GOMAXPROCS restored after the raised measurement, and the JSON
// snapshot round-tripping.
func TestServeLoadTinyConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("load generator runs wall-clock intervals")
	}
	s := NewSuite()
	before := runtime.GOMAXPROCS(0)
	res, err := s.ServeLoad(t.Context(), ServeLoadConfig{
		Keys:        6,
		Goroutines:  4,
		Duration:    60 * time.Millisecond,
		HitFraction: 0.75,
		// One above the entry value, so the raise-and-restore path runs
		// on every host.
		MinGOMAXPROCS: before + 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := runtime.GOMAXPROCS(0); got != before {
		t.Errorf("GOMAXPROCS not restored after measurement: %d, want %d", got, before)
	}
	if res.GOMAXPROCS != before+1 {
		t.Errorf("measured at GOMAXPROCS %d, want the raised %d", res.GOMAXPROCS, before+1)
	}

	if res.Impl != "sharded" || res.Shards < 1 {
		t.Errorf("implementation: %q with %d shard(s)", res.Impl, res.Shards)
	}
	wantMixes := []string{"hit", "mixed", "churn"}
	if len(res.Points) != len(wantMixes) {
		t.Fatalf("measured %d mixes, want %d", len(res.Points), len(wantMixes))
	}
	for i, p := range res.Points {
		if p.Mix != wantMixes[i] {
			t.Errorf("point %d mix %q, want %q", i, p.Mix, wantMixes[i])
		}
		if p.Ops <= 0 || p.ThroughputRPS <= 0 {
			t.Errorf("%s measured no load: %+v", p.Mix, p)
		}
		if p.Mix == "hit" && p.ErrorOps != 0 {
			t.Errorf("hit answered %d errors", p.ErrorOps)
		}
		if p.Mix != "hit" && p.ErrorOps == 0 {
			t.Errorf("%s saw no failing keys", p.Mix)
		}
	}
	// The erosion invariant: on hit and mixed workloads the cache keeps
	// its working set resident, so zero searches run during the
	// measured interval.
	for _, p := range res.Points[:2] {
		if p.SearchesRun != 0 {
			t.Errorf("%s ran %d searches during measurement (working set eroded)", p.Mix, p.SearchesRun)
		}
	}

	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back ServeLoadResult
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("snapshot does not round-trip: %v", err)
	}
	if back.Keys != 6 || len(back.Points) != len(wantMixes) {
		t.Errorf("round-tripped snapshot lost fields: %+v", back)
	}
	res.Print(&buf) // must not panic
}
