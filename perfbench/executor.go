package main

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"power10sim/internal/power"
	"power10sim/internal/runner"
	"power10sim/internal/trace"
	"power10sim/internal/uarch"
)

// executor repeats the runner's local execution path through public calls
// (trace.NewVMStream per thread, uarch.Simulate, power.NewModel(cfg).Report)
// and records one span around each. It is installed with runner.SetExecutor,
// which keeps the memo and disk caches and the ledger but bypasses the
// runner's worker semaphore, so the executor bounds its own concurrency.
// The traced quick sweep's stdout must match the CLI's byte for byte, which
// proves the executor reproduces the local path.
type executor struct {
	rec *recorder
	// slots holds the free trace lanes; its capacity is the concurrency bound.
	slots chan int
	// parent is the span the next request belongs to (the running
	// experiment); experiments run one at a time.
	parent atomic.Int64
	nextID atomic.Int64

	instrs, cycles atomic.Uint64

	mu   sync.Mutex
	seen []runner.Request
}

func newExecutor(rec *recorder, workers int) *executor {
	e := &executor{rec: rec, slots: make(chan int, workers)}
	for lane := 1; lane <= workers; lane++ {
		e.slots <- lane
	}
	return e
}

// run implements runner.Executor. It declines what it cannot reproduce
// exactly: sampled runs, chaos self-tests and unkeyable requests.
func (e *executor) run(ctx context.Context, req runner.Request) (res runner.Result, handled bool) {
	if req.Cfg == nil || req.W == nil || req.W.Prog == nil || req.Sample != nil || req.Chaos != nil {
		return runner.Result{}, false
	}
	var lane int
	select {
	case lane = <-e.slots:
	case <-ctx.Done():
		return runner.Result{}, false
	}
	defer func() { e.slots <- lane }()
	e.mu.Lock()
	e.seen = append(e.seen, req)
	e.mu.Unlock()

	id := int(e.nextID.Add(1))
	top := e.rec.begin("runner.exec", lane, int(e.parent.Load()), id)
	defer e.rec.end(top)
	// The runner's local path turns a panic into a transient error; do the
	// same so one bad simulation cannot take the benchmark down.
	defer func() {
		if p := recover(); p != nil {
			res, handled = runner.Result{Err: &runner.PanicError{Value: p, Stack: debug.Stack()}, Attempts: 1}, true
		}
	}()
	smt := max(req.SMT, 1)
	streams := make([]trace.Stream, 0, smt)
	for i := 0; i < smt; i++ {
		s := e.rec.begin("trace.NewVMStream", lane, top, id)
		streams = append(streams, trace.NewVMStream(req.W.Prog, req.Budget))
		e.rec.end(s)
	}
	opts := []uarch.SimOption{uarch.WithWarmup(req.Warmup), uarch.WithStrictCycleLimit()}
	if ctx.Done() != nil {
		opts = append(opts, uarch.WithContext(ctx))
	}
	if req.Upset != nil {
		opts = append(opts, uarch.WithUpset(req.Upset))
	}
	s := e.rec.begin("uarch.Simulate", lane, top, id)
	sim, err := uarch.Simulate(req.Cfg, streams, req.MaxCycles, opts...)
	e.rec.end(s)
	if err != nil {
		return runner.Result{Err: fmt.Errorf("%s on %s (SMT%d): %w", req.W.Name, req.Cfg.Name, smt, err), Attempts: 1}, true
	}
	act := sim.Activity
	e.instrs.Add(act.Instructions)
	e.cycles.Add(act.Cycles)
	p := e.rec.begin("power.Report", lane, top, id)
	rep := power.NewModel(req.Cfg).Report(&act)
	e.rec.end(p)
	return runner.Result{Activity: &act, Report: rep, Upset: sim.Upset, Attempts: 1}, true
}

// requests returns every request the executor ran, in the order it ran them.
func (e *executor) requests() []runner.Request {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]runner.Request(nil), e.seen...)
}
