package main

import (
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"power10sim/internal/telemetry"
)

// span is one timed call into a layer's public function. Spans of one
// simulation request share Req; Parent is the span that caused this one (0 at
// the root). Lane is the trace row: 0 for the sweep's own thread, 1..N for
// the executor's worker slots.
type span struct {
	ID, Parent, Req, Lane int
	Name                  string
	Start, End            time.Duration
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory for the length of a traced run; they are
// aggregated into metrics and written out as one Chrome trace at the end.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id.
func (r *recorder) begin(name string, lane, parent, req int) int {
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Lane: lane, Name: name, Start: now, End: -1})
	return id
}

// end closes span id and returns its length.
func (r *recorder) end(id int) time.Duration {
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = now
	return r.spans[id-1].dur()
}

// timed records fn as one root-lane span under parent and returns its length.
func (r *recorder) timed(name string, parent int, fn func()) time.Duration {
	id := r.begin(name, 0, parent, 0)
	fn()
	return r.end(id)
}

// closed returns a copy of every finished span.
func (r *recorder) closed() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// tally is the call count and summed duration of every span with one name.
type tally struct {
	n    int
	busy time.Duration
}

// perCall is the mean span length, or 0 without calls.
func (t tally) perCall() time.Duration {
	if t.n == 0 {
		return 0
	}
	return t.busy / time.Duration(t.n)
}

func tallies(spans []span) map[string]tally {
	out := map[string]tally{}
	for _, s := range spans {
		t := out[s.Name]
		t.n++
		t.busy += s.dur()
		out[s.Name] = t
	}
	return out
}

// selfTime is parent's duration minus the part of it that the union of the
// children's intervals covers. Children may overlap each other (two workers
// simulate at once) and may stick out of the parent; only the covered part
// of the parent counts once.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			covered += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.hi - cur.lo
	}
	return parent.dur() - covered
}

// stageOf maps a span name to the stage name the program's own telemetry is
// to use for the same work (vm_build, core, power_report, cache_io,
// ledger_io, model_fit, surrogate_predict), or to its layer when no stage
// applies.
func stageOf(name string) string {
	switch name {
	case "trace.NewVMStream", "trace.drain":
		return "vm_build"
	case "uarch.Simulate":
		return "core"
	case "power.Report":
		return "power_report"
	case "runner.Do":
		return "cache_io"
	case "runlog.Append", "runlog.ScanDir":
		return "ledger_io"
	case "powermodel.CollectJobs", "mlfit.fit", "surrogate.Train":
		return "model_fit"
	case "surrogate.Predict":
		return "surrogate_predict"
	}
	layer, _, _ := strings.Cut(name, ".")
	layer, _, _ = strings.Cut(layer, ":")
	return layer
}

// writeChromeTrace writes the spans through the program's own Chrome trace
// writer, one complete ("X") event per span carrying its id, parent, request
// and stage.
func writeChromeTrace(path string, spans []span) error {
	evs := make([]telemetry.Event, 0, len(spans))
	for _, s := range spans {
		evs = append(evs, telemetry.Event{
			Name: s.Name, Cat: stageOf(s.Name), Ph: "X",
			Ts: s.Start.Microseconds(), Dur: max(1, s.dur().Microseconds()),
			Pid: telemetry.PidWall, Tid: s.Lane,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "req": s.Req},
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.WriteChromeTrace(f, map[int]string{telemetry.PidWall: "perfbench traced run (wall clock)"}, evs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
