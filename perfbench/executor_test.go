package main

import (
	"context"
	"reflect"
	"testing"

	"power10sim/internal/runner"
	"power10sim/internal/uarch"
	"power10sim/internal/workloads"
)

func smallRequest(w *workloads.Workload, smt int) runner.Request {
	return runner.Request{Cfg: uarch.POWER10(), W: w, SMT: smt, Budget: 6000 / uint64(smt), Warmup: 500, MaxCycles: 10_000_000}
}

// TestExecutorMatchesRunner checks that the benchmark executor reproduces the
// runner's own local execution path exactly.
func TestExecutorMatchesRunner(t *testing.T) {
	upset := smallRequest(workloads.Compress(), 1)
	upset.Upset = &uarch.Upset{Cycle: 1000, Target: uarch.UpsetEA, Bit: 3}
	reqs := []runner.Request{
		smallRequest(workloads.Compress(), 1),
		smallRequest(workloads.Compress(), 4),
		smallRequest(workloads.Interp(), 1),
		smallRequest(workloads.Interp(), 4),
		upset,
	}
	for _, req := range reqs {
		want := runner.New(1).Do(req)
		if want.Err != nil {
			t.Fatalf("%s SMT%d: runner: %v", req.W.Name, req.SMT, want.Err)
		}
		ex := newExecutor(newRecorder(), 1)
		r := runner.New(1)
		r.SetExecutor(ex.run)
		got := r.Do(req)
		if got.Err != nil {
			t.Fatalf("%s SMT%d: executor: %v", req.W.Name, req.SMT, got.Err)
		}
		if r.Stats().Remote != 1 {
			t.Errorf("%s SMT%d: executor did not handle the request", req.W.Name, req.SMT)
		}
		if !reflect.DeepEqual(got.Activity, want.Activity) || !reflect.DeepEqual(got.Report, want.Report) ||
			!reflect.DeepEqual(got.Upset, want.Upset) {
			t.Errorf("%s SMT%d (upset %v): executor result differs from the runner's", req.W.Name, req.SMT, req.Upset != nil)
		}
		if req.Upset != nil && (got.Upset == nil || !got.Upset.Landed) {
			t.Errorf("upset request: outcome %+v, want a landed upset", got.Upset)
		}
		calls := tallies(ex.rec.closed())
		if calls["trace.NewVMStream"].n != req.SMT || calls["uarch.Simulate"].n != 1 || calls["power.Report"].n != 1 {
			t.Errorf("%s SMT%d: spans %v", req.W.Name, req.SMT, calls)
		}
		if ex.instrs.Load() != got.Activity.Instructions || ex.cycles.Load() != got.Activity.Cycles {
			t.Errorf("%s SMT%d: executor counted %d instrs / %d cycles", req.W.Name, req.SMT, ex.instrs.Load(), ex.cycles.Load())
		}
	}
}

func TestExecutorDeclinesWhatItCannotReproduce(t *testing.T) {
	ex := newExecutor(newRecorder(), 1)
	chaos := smallRequest(workloads.Compress(), 1)
	chaos.Chaos = &runner.ChaosSpec{}
	for _, req := range []runner.Request{{}, chaos} {
		if _, handled := ex.run(context.Background(), req); handled {
			t.Errorf("executor handled %+v", req)
		}
	}
	if n := len(ex.requests()); n != 0 {
		t.Errorf("declined requests recorded: %d", n)
	}
}
