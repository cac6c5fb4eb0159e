package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"power10sim/internal/telemetry"
)

func sp(start, end int) span {
	return span{Start: time.Duration(start) * time.Millisecond, End: time.Duration(end) * time.Millisecond}
}

func TestSelfTime(t *testing.T) {
	parent := sp(0, 100)
	for _, tc := range []struct {
		name     string
		children []span
		want     int
	}{
		{"no children", nil, 100},
		{"disjoint", []span{sp(10, 20), sp(30, 50)}, 70},
		// Two workers: overlapping children count their union once.
		{"overlapping", []span{sp(10, 40), sp(20, 50), sp(45, 60)}, 50},
		{"nested", []span{sp(10, 90), sp(20, 30)}, 20},
		{"touching", []span{sp(10, 20), sp(20, 30)}, 80},
		{"clipped to parent", []span{sp(-10, 10), sp(90, 120)}, 80},
		{"outside parent", []span{sp(100, 120), sp(-20, 0)}, 100},
		{"fully covered", []span{sp(0, 60), sp(50, 100)}, 0},
	} {
		if got := selfTime(parent, tc.children); got != time.Duration(tc.want)*time.Millisecond {
			t.Errorf("%s: selfTime = %v, want %dms", tc.name, got, tc.want)
		}
	}
}

func TestRecorderSpansAndChromeTrace(t *testing.T) {
	rec := newRecorder()
	exp := rec.begin("exp:fig5", 0, 0, 0)
	sim := rec.begin("uarch.Simulate", 1, exp, 7)
	rec.end(sim)
	open := rec.begin("power.Report", 1, exp, 7) // never closed: not reported
	_ = open
	rec.end(exp)
	spans := rec.closed()
	if len(spans) != 2 {
		t.Fatalf("closed() = %d spans, want 2", len(spans))
	}
	if s := spans[1]; s.Name != "uarch.Simulate" || s.Parent != exp || s.Req != 7 || s.End < s.Start {
		t.Errorf("span = %+v", s)
	}
	if n := tallies(spans)["uarch.Simulate"].n; n != 1 {
		t.Errorf("tally n = %d", n)
	}

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeChromeTrace(path, spans); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []telemetry.Event `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	got := map[string]telemetry.Event{}
	for _, e := range tf.TraceEvents {
		if e.Ph == "X" {
			got[e.Name] = e
		}
	}
	e, ok := got["uarch.Simulate"]
	if !ok || e.Cat != "core" || e.Dur < 1 || e.Tid != 1 {
		t.Fatalf("uarch.Simulate event = %+v", e)
	}
	if e.Args["parent"] != float64(exp) || e.Args["req"] != float64(7) {
		t.Errorf("event args = %v", e.Args)
	}
	if got["exp:fig5"].Cat != "exp" {
		t.Errorf("experiment span category = %q", got["exp:fig5"].Cat)
	}
}
