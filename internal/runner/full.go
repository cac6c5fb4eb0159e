package runner

import (
	"fmt"
	"sync"

	"power10sim/internal/trace"
	"power10sim/internal/uarch"
	"power10sim/internal/workloads"
)

// fullMaxCycles bounds every full-mode request.
const fullMaxCycles = 50_000_000

// catalog is the workload catalog ResolveFull looks names up in, built once
// per process; requests share its read-only workloads.
var catalog = sync.OnceValue(workloads.Catalog)

// FullRequest is the one full-mode request for a (config, workload, smt,
// budget) point, shared by p10sim, p10power and the fabric's submit API so
// the same point always lands on the same content key: smt copies of w, each
// budget instructions long (0 = the workload default), with the workload's
// warmup scaled by the thread count and a 50M-cycle cap. smt < 1 means 1.
func FullRequest(cfg *uarch.Config, w *workloads.Workload, smt int, budget uint64) Request {
	if smt < 1 {
		smt = 1
	}
	if budget == 0 {
		budget = w.Budget
	}
	return Request{Cfg: cfg, W: w, SMT: smt, Budget: budget,
		Warmup: w.Warmup * uint64(smt), MaxCycles: fullMaxCycles}
}

// ResolveFull is FullRequest by name: config through uarch.ConfigByName,
// workload through the workload catalog.
func ResolveFull(config, workload string, smt int, budget uint64) (Request, error) {
	cfg := uarch.ConfigByName(config)
	if cfg == nil {
		return Request{}, fmt.Errorf("unknown config %q", config)
	}
	w := catalog()[workload]
	if w == nil {
		return Request{}, fmt.Errorf("unknown workload %q", workload)
	}
	return FullRequest(cfg, w, smt, budget), nil
}

// Simulate runs the request's full timing simulation directly — no pool,
// cache, ledger or sampling — with the request's warmup ahead of opts.
func (r Request) Simulate(opts ...uarch.SimOption) (*uarch.Result, error) {
	smt := r.SMT
	if smt < 1 {
		smt = 1
	}
	streams := trace.Threads(r.W.Prog, r.Budget, smt)
	opts = append([]uarch.SimOption{uarch.WithWarmup(r.Warmup)}, opts...)
	return uarch.Simulate(r.Cfg, streams, r.MaxCycles, opts...)
}
