package surrogate

import (
	"math"
	"sync"

	"power10sim/internal/isa"
	"power10sim/internal/power"
	"power10sim/internal/runner"
	"power10sim/internal/sampling"
	"power10sim/internal/uarch"
)

// DefaultThreshold is the default confidence gate: serve a prediction only
// when both the CPI and power relative standard errors are at or below 5% —
// the same bound the sampling engine promises for power and the validation
// gate (make explore-check) enforces for held-out CPI.
const DefaultThreshold = 0.05

// Tier adapts a trained model into a runner.Predictor: the uncertainty-gated
// surrogate cache tier. It declines every request shape whose ground truth a
// prediction cannot stand in for (fault injection, sampled estimates, chaos
// self-tests, workloads outside the model's vocabulary) and every point whose
// predicted uncertainty exceeds the threshold — those fall through to real
// simulation, which is the active-learning signal.
type Tier struct {
	model     *Model
	threshold float64
	bufs      sync.Pool
	profiles  sync.Map // *isa.Program -> []float64 (nil: profiling failed)
}

// NewTier wraps a model with a confidence gate. threshold <= 0 selects
// DefaultThreshold.
func NewTier(m *Model, threshold float64) *Tier {
	if threshold <= 0 {
		threshold = DefaultThreshold
	}
	t := &Tier{model: m, threshold: threshold}
	t.bufs.New = func() any { return &PredictBuf{} }
	return t
}

// Model returns the wrapped model.
func (t *Tier) Model() *Model { return t.model }

// Threshold returns the confidence gate.
func (t *Tier) Threshold() float64 { return t.threshold }

// profile returns the workload's cached behavior vector, functionally
// executing it once per program on first use.
func (t *Tier) profile(prog *isa.Program) []float64 {
	if v, ok := t.profiles.Load(prog); ok {
		p, _ := v.([]float64)
		return p
	}
	p, err := sampling.Profile(prog, ProfileBudget)
	if err != nil {
		p = nil
	}
	t.profiles.Store(prog, p)
	return p
}

// Predict implements runner.Predictor (install with
// pool.SetPredictor(tier.Predict)). Safe for concurrent use.
func (t *Tier) Predict(req runner.Request) (runner.Result, bool) {
	if req.Cfg == nil || req.W == nil || req.W.Prog == nil ||
		req.Upset != nil || req.Chaos != nil || req.Sample != nil {
		return runner.Result{}, false
	}
	if !t.model.Featurizer().Knows(req.W.Name) {
		// The one-hot for an unseen workload would be all zeros: the profile
		// block still describes it, but the model never cross-validated that
		// extrapolation, so it does not get to serve it.
		return runner.Result{}, false
	}
	profile := t.profile(req.W.Prog)
	if profile == nil {
		return runner.Result{}, false
	}
	smt := req.SMT
	if smt < 1 {
		smt = 1
	}
	buf := t.bufs.Get().(*PredictBuf)
	p := t.model.Predict(buf, req.Cfg, req.W.Name, profile, smt, req.Budget, req.Warmup)
	t.bufs.Put(buf)
	if !(p.RelStd <= t.threshold) || // NaN-safe: a NaN std fails the gate
		math.IsNaN(p.CPI) || math.IsInf(p.CPI, 0) || p.CPI <= 0 ||
		math.IsNaN(p.Power) || math.IsInf(p.Power, 0) || p.Power <= 0 ||
		p.CPI*float64(servedInsts(req, smt)) > maxServedCycles {
		return runner.Result{}, false
	}
	return synthesize(req, smt, p), true
}

// maxServedCycles bounds a served prediction's cycle count: up to 2^53 the
// count converts to uint64 and back to the predicted CPI exactly.
const maxServedCycles = 1 << 53

// servedInsts is the instruction count a served result reports: the budget
// on every thread, at least one.
func servedInsts(req runner.Request, smt int) uint64 {
	return max(req.Budget*uint64(smt), 1)
}

// synthesize renders a Prediction as a runner.Result shaped like a real
// simulation's: a consistent (Cycles, Instructions, CPI) triple and a power
// report whose category marginals are the predicted components. Only the
// aggregate fields are populated — per-unit activity counters and the 39-way
// component vector stay zero, which downstream consumers must treat as
// "unmeasured" (the ledger tags the record as predicted).
func synthesize(req runner.Request, smt int, p Prediction) runner.Result {
	insts := servedInsts(req, smt)
	cycles := uint64(math.Round(p.CPI * float64(insts)))
	if cycles == 0 {
		cycles = 1
	}
	act := &uarch.Activity{Cycles: cycles, Instructions: insts}
	rep := &power.Report{
		Total:      p.Power,
		Clock:      p.Clock,
		Switching:  p.Switching,
		Array:      p.Array,
		Leakage:    p.Leakage,
		Components: make([]float64, power.NumComponents),
	}
	return runner.Result{
		Activity: act,
		Report:   rep,
		Predicted: &runner.PredictionMeta{
			CPIRelStd:   p.CPIStd,
			PowerRelStd: p.PowerStd,
		},
	}
}
