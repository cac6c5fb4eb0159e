// Package faultinject is the statistical latch fault-injection engine: a
// seeded Monte Carlo campaign that injects single-latch bit-flip upsets into
// running simulations and classifies each trial's architectural outcome. Its
// purpose is cross-validation — SERMiner (internal/serminer) derives latch
// vulnerability analytically from clock-utilization statistics, and this
// package measures the same quantity empirically: if the methodology is
// sound, the fraction of injected upsets that are NOT masked at the latch
// level must converge (within sampling error and workload phase variation)
// to the analytic vulnerable fraction at the same vulnerability threshold.
//
// Each trial proceeds in two stages:
//
//  1. Latch-level masking. A site is drawn from the latch population
//     (weighted by per-bucket latch counts) and a cycle uniformly from the
//     workload's execution. Whether the upset is captured follows the exact
//     classification rule the analytic study applies — serminer.VulnerableAt
//     over the site's switching activity — evaluated on the observation
//     window containing the injection cycle, so phase behavior (a unit
//     napping between bursts) is respected rather than averaged away.
//
//  2. Architectural consequence. Captured upsets are routed by victim unit:
//     datapath units (FXU, VSU, MMA, LSU) get a real bit flip in
//     architectural state via functional replay — the workload's VM is
//     re-executed, one register bit is flipped at the dynamic instruction
//     the injection cycle maps to, and the final isa.VM.StateHash is
//     compared against the golden run's to detect silent data corruption.
//     Control units (fetch, decode, rename, issue, MMU, completion, L2) get
//     a micro-architectural upset (uarch.WithUpset) through the hardened
//     runner, where a wedged pipeline surfaces as a diagnostic HangError or
//     a watchdog timeout. Configuration latches are checker-protected in
//     the modelled design and classify as detected.
//
// The campaign is fully deterministic for a (seed, parameters) pair: every
// trial derives its own splitmix64 stream, stage-B simulations flow through
// the memoizing runner (order-independent), and results are assembled by
// trial index — so a campaign is bit-identical under any -jobs level.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"power10sim/internal/isa"
	"power10sim/internal/microprobe"
	"power10sim/internal/rtl"
	"power10sim/internal/runner"
	"power10sim/internal/serminer"
	"power10sim/internal/telemetry"
	"power10sim/internal/trace"
	"power10sim/internal/uarch"
	"power10sim/internal/workloads"
)

// Outcome classifies one injected upset's architectural consequence.
type Outcome int

// Trial outcomes, from harmless to worst.
const (
	// OutcomeMaskedLatch: the latch was clock-gated or idle — the flip was
	// never captured into live state (latch-level masking; the quantity the
	// analytic derating predicts).
	OutcomeMaskedLatch Outcome = iota
	// OutcomeMaskedArch: captured, but the corrupted state never influenced
	// architectural results (dead value, timing-only perturbation).
	OutcomeMaskedArch
	// OutcomeSDC: silent data corruption — the run completed with wrong
	// architectural state and no indication.
	OutcomeSDC
	// OutcomeDetected: the corruption was caught (checker-protected config
	// state, or the program crashed visibly).
	OutcomeDetected
	// OutcomeHang: the pipeline or program stopped making forward progress
	// and the watchdog fired.
	OutcomeHang
	// NumOutcomes counts the outcome classes.
	NumOutcomes
)

var outcomeNames = [NumOutcomes]string{
	"masked-latch", "masked-arch", "sdc", "detected", "hang",
}

func (o Outcome) String() string {
	if o >= 0 && o < NumOutcomes {
		return outcomeNames[o]
	}
	return "outcome(?)"
}

// datapathUnit reports whether upsets in the unit corrupt architectural data
// (replay route) rather than control state (timing-sim route).
func datapathUnit(u uarch.Unit) bool {
	switch u {
	case uarch.UnitFXU, uarch.UnitVSU, uarch.UnitMMA, uarch.UnitLSU:
		return true
	}
	return false
}

// Case is one workload under injection. DataToggle overrides the datapath
// toggle probability when the operand content is known (microprobe zero- vs
// random-data testcases); <= 0 uses the default busy-derived estimate.
type Case struct {
	W          *workloads.Workload
	DataToggle float64
}

// Campaign parameterizes one injection study over a core configuration.
type Campaign struct {
	Cfg   *uarch.Config
	Cases []Case
	// SMT is the hardware-thread count of the simulated runs (default 1).
	SMT int
	// Trials is the number of injected upsets per workload (default 400).
	Trials int
	// Seed roots every per-trial random stream.
	Seed uint64
	// VTs are the vulnerability-threshold percentages to validate at
	// (default 10/30/50/70/90, matching the Fig. 14 sweep).
	VTs []int
	// RefVT selects the threshold stage-2 consequence classification runs
	// at (default: the middle entry of VTs).
	RefVT int
	// Budget is the per-thread dynamic-instruction budget (default 6000/SMT).
	Budget uint64
	// WindowCycles is the observation-window length for per-trial switching
	// classification (default 2048).
	WindowCycles uint64
	// Consequences enables stage 2. Off, the campaign measures only
	// latch-level masking — sufficient for derating validation at a
	// fraction of the cost.
	Consequences bool
	// Pool executes stage-2 timing simulations; nil creates a private
	// single-worker runner. Give it a Policy for watchdog coverage.
	Pool *runner.Runner
	// Chaos, when non-nil, attaches a forced-failure spec to every stage-2
	// timing request — the `make chaos` gate proves the campaign absorbs
	// panics, transient errors and hangs instead of crashing.
	Chaos *runner.ChaosSpec
	// Metrics, when non-nil, receives campaign counters
	// (faultinject_trials_total, faultinject_outcome_* et al.).
	Metrics *telemetry.Registry
	// Ctx cancels the campaign between trials (nil = Background).
	Ctx context.Context
}

// VTValidation is the analytic-vs-measured comparison at one threshold.
type VTValidation struct {
	VT int
	// Analytic is SERMiner's vulnerable latch fraction for this workload.
	Analytic float64
	// Measured is the injection campaign's non-masked trial fraction.
	Measured float64
}

// Gap returns measured - analytic.
func (v VTValidation) Gap() float64 { return v.Measured - v.Analytic }

// WorkloadResult is one workload's campaign outcome.
type WorkloadResult struct {
	Name   string
	Trials int
	PerVT  []VTValidation
	// Outcomes is the consequence histogram at RefVT (stage 2 only).
	Outcomes [NumOutcomes]int
	// StageB counts trials routed to consequence classification.
	StageB int
	// Failed counts stage-2 trials whose simulation failed for reasons that
	// are not outcomes (exhausted retries on transient faults); they are
	// excluded from the histogram and listed in CampaignResult.Failures.
	Failed int
}

// CampaignResult is the full study outcome.
type CampaignResult struct {
	Cfg          string
	SMT          int
	Trials       int
	Seed         uint64
	RefVT        int
	VTs          []int
	TotalLatches int
	Workloads    []WorkloadResult
	// Failures describes every trial that could not be classified. A
	// healthy campaign has none; a chaos campaign accumulates them instead
	// of crashing.
	Failures []string
}

// MaxValidationGap returns the largest |measured - analytic| across all
// workloads and thresholds — the single number the validation test bounds.
func (r *CampaignResult) MaxValidationGap() float64 {
	var worst float64
	for _, w := range r.Workloads {
		for _, v := range w.PerVT {
			if g := v.Gap(); g > worst {
				worst = g
			} else if -g > worst {
				worst = -g
			}
		}
	}
	return worst
}

// rng is a splitmix64 stream; each trial gets an independent one so trial
// outcomes are order- and scheduling-independent.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// trialRNG derives the stream for one (workload, trial) pair from the seed.
func trialRNG(seed uint64, wi, trial int) *rng {
	r := rng{s: seed ^ 0x6A09E667F3BCC909}
	r.s ^= r.next() + uint64(wi)*0x2545F4914F6CDD1D
	r.s ^= r.next() + uint64(trial)
	return &rng{s: r.next()}
}

// window is one observation interval of the golden timing run.
type window struct {
	// end is the window's exclusive end cycle.
	end uint64
	// busy is the per-unit busy fraction inside the window.
	busy [uarch.NumUnits]float64
	// retired is the cumulative retired-instruction count through end.
	retired uint64
}

// golden holds everything the trial loop needs about one workload's
// uninjected execution.
type golden struct {
	act      uarch.Activity
	timeline []window
	cycles   uint64
	// vmSteps/vmHash/vmHalted describe the functional golden run the replay
	// route compares against (filled lazily when Consequences is on).
	vmSteps  uint64
	vmHash   uint64
	vmHalted bool
}

// campaignObs bundles the telemetry counters (all nil-safe).
type campaignObs struct {
	trials, stageB, failed *telemetry.Counter
	outcomes               [NumOutcomes]*telemetry.Counter
}

func newCampaignObs(reg *telemetry.Registry) campaignObs {
	o := campaignObs{
		trials: reg.Counter("faultinject_trials_total"),
		stageB: reg.Counter("faultinject_stageb_sims_total"),
		failed: reg.Counter("faultinject_failed_trials_total"),
	}
	for i := Outcome(0); i < NumOutcomes; i++ {
		o.outcomes[i] = reg.Counter("faultinject_outcome_" + strings.ReplaceAll(i.String(), "-", "_") + "_total")
	}
	return o
}

// Run executes the campaign. Setup failures (no cases, a workload that does
// not simulate cleanly) return an error; per-trial failures degrade into
// CampaignResult.Failures so one bad trial cannot void thousands of good
// ones.
func (c *Campaign) Run() (*CampaignResult, error) {
	if c.Cfg == nil {
		return nil, errors.New("faultinject: nil config")
	}
	if len(c.Cases) == 0 {
		return nil, errors.New("faultinject: no cases")
	}
	smt := c.SMT
	if smt < 1 {
		smt = 1
	}
	trials := c.Trials
	if trials <= 0 {
		trials = 400
	}
	budget := c.Budget
	if budget == 0 {
		budget = 6000 / uint64(smt)
	}
	windowCycles := c.WindowCycles
	if windowCycles == 0 {
		windowCycles = 2048
	}
	vts := c.VTs
	if len(vts) == 0 {
		vts = []int{10, 30, 50, 70, 90}
	}
	vts = append([]int(nil), vts...)
	sort.Ints(vts)
	refVT := c.RefVT
	if refVT == 0 {
		refVT = vts[len(vts)/2]
	}
	if i := sort.SearchInts(vts, refVT); i == len(vts) || vts[i] != refVT {
		// RefVT must be part of the threshold set so stage-1 capture and
		// stage-2 routing agree.
		vts = append(vts, refVT)
		sort.Ints(vts)
	}
	ctx := c.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	pool := c.Pool
	if pool == nil {
		pool = runner.New(1)
	}
	obs := newCampaignObs(c.Metrics)

	model := rtl.NewLatchModel(c.Cfg)
	sites := model.Sampler()
	if sites.TotalLatches() == 0 {
		return nil, errors.New("faultinject: empty latch model")
	}

	// Golden runs: one instrumented timing simulation per workload feeds
	// both the analytic study (run-level activity) and the trial loop
	// (per-window busy fractions and the cycle -> retired mapping).
	study := serminer.NewStudy(c.Cfg)
	goldens := make([]golden, len(c.Cases))
	for i, cs := range c.Cases {
		if cs.W == nil || cs.W.Prog == nil {
			return nil, fmt.Errorf("faultinject: case %d has no workload", i)
		}
		g, err := c.goldenRun(ctx, cs.W, smt, budget, windowCycles)
		if err != nil {
			return nil, fmt.Errorf("faultinject: golden run of %s: %w", cs.W.Name, err)
		}
		goldens[i] = g
		study.AddRun(cs.W.Name, &goldens[i].act, cs.DataToggle)
	}
	thr := study.Thresholds(vts)
	analytic := study.PerWorkload(vts)

	res := &CampaignResult{
		Cfg: c.Cfg.Name, SMT: smt, Trials: trials, Seed: c.Seed,
		RefVT: refVT, VTs: vts, TotalLatches: model.TotalLatches(),
	}
	for wi, cs := range c.Cases {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("faultinject: canceled: %w", err)
		}
		wr := WorkloadResult{Name: cs.W.Name, Trials: trials,
			PerVT: make([]VTValidation, len(vts))}
		for vi, vt := range vts {
			wr.PerVT[vi] = VTValidation{VT: vt, Analytic: analytic[wi].Vulnerable[vt]}
		}
		g := &goldens[wi]

		// Stage 1: latch-level masking per trial, against the same
		// thresholds the analytic classification used.
		nonMasked := make([]int, len(vts))
		type stageBTrial struct {
			trial  int
			bucket int
			cycle  uint64
			r      *rng
		}
		var toStageB []stageBTrial
		for t := 0; t < trials; t++ {
			r := trialRNG(c.Seed, wi, t)
			bi := sites.Bucket(r.next())
			b := &model.Buckets[bi]
			cycle := 1 + r.next()%(g.cycles-1)
			sw := c.switching(model, g, bi, cycle, windowCycles, cs.DataToggle)
			captured := false
			for vi, vt := range vts {
				if serminer.VulnerableAt(b.Config, sw, thr[vt]) {
					nonMasked[vi]++
					if vt == refVT {
						captured = true
					}
				}
			}
			obs.trials.Inc()
			if c.Consequences {
				if captured {
					toStageB = append(toStageB, stageBTrial{trial: t, bucket: bi, cycle: cycle, r: r})
				} else {
					wr.Outcomes[OutcomeMaskedLatch]++
					obs.outcomes[OutcomeMaskedLatch].Inc()
				}
			}
		}
		for vi := range vts {
			wr.PerVT[vi].Measured = float64(nonMasked[vi]) / float64(trials)
		}

		// Stage 2: consequence classification for captured upsets.
		if c.Consequences {
			if g.vmSteps == 0 {
				if err := goldenReplay(cs.W, budget, g); err != nil {
					return nil, fmt.Errorf("faultinject: golden replay of %s: %w", cs.W.Name, err)
				}
			}
			wr.StageB = len(toStageB)
			obs.stageB.Add(uint64(len(toStageB)))

			// Timing-route trials batch through the runner pool; replay and
			// config outcomes resolve inline. outcomes[i] < 0 marks a trial
			// whose request is pending in reqs.
			outcomes := make([]Outcome, len(toStageB))
			var reqs []runner.Request
			var reqTrial []int
			for i, sb := range toStageB {
				b := &model.Buckets[sb.bucket]
				switch {
				case b.Config:
					// Config state is parity/ECC-checked in the modelled
					// design: a captured flip raises a checkstop.
					outcomes[i] = OutcomeDetected
				case datapathUnit(b.Unit):
					outcomes[i] = replayTrial(cs.W, g, smt, sb.cycle, b.Unit, sb.r)
				default:
					outcomes[i] = -1
					reqs = append(reqs, c.timingRequest(cs.W, smt, budget, g, sb.cycle, sb.r))
					reqTrial = append(reqTrial, i)
				}
			}
			results := pool.RunAllCtx(ctx, reqs)
			failed := make(map[int]bool)
			for ri, r := range results {
				i := reqTrial[ri]
				out, failure := timingOutcome(r)
				if failure != "" {
					failed[i] = true
					wr.Failed++
					obs.failed.Inc()
					res.Failures = append(res.Failures,
						fmt.Sprintf("%s trial %d: %s", cs.W.Name, toStageB[i].trial, failure))
					continue
				}
				outcomes[i] = out
			}
			for i := range toStageB {
				if failed[i] {
					continue
				}
				wr.Outcomes[outcomes[i]]++
				obs.outcomes[outcomes[i]].Inc()
			}
		}
		res.Workloads = append(res.Workloads, wr)
	}
	return res, nil
}

// goldenRun executes the uninjected timing simulation, capturing the
// observation-window timeline.
func (c *Campaign) goldenRun(ctx context.Context, w *workloads.Workload, smt int, budget, windowCycles uint64) (golden, error) {
	var g golden
	streams := trace.Threads(w.Prog, budget, smt)
	var retired uint64
	opts := []uarch.SimOption{
		uarch.WithSampler(windowCycles, func(s uarch.CycleSample) {
			retired += s.Delta.Instructions
			var win window
			win.end = s.Cycle
			win.retired = retired
			if s.Delta.Cycles > 0 {
				for u := uarch.Unit(0); u < uarch.NumUnits; u++ {
					win.busy[u] = float64(s.Delta.UnitBusy[u]) / float64(s.Delta.Cycles)
				}
			}
			g.timeline = append(g.timeline, win)
		}),
	}
	if ctx.Done() != nil {
		opts = append(opts, uarch.WithContext(ctx))
	}
	res, err := uarch.Simulate(c.Cfg, streams, goldenMaxCycles, opts...)
	if err != nil {
		return golden{}, err
	}
	g.act = res.Activity
	g.cycles = res.Activity.Cycles
	if g.cycles < 2 || len(g.timeline) == 0 {
		return golden{}, fmt.Errorf("degenerate golden run (%d cycles)", g.cycles)
	}
	return g, nil
}

// goldenMaxCycles bounds golden and injected timing runs. Injection budgets
// are small by design (thousands of instructions), so this is generous.
const goldenMaxCycles = 20_000_000

// switching computes the site's switching activity in the injection cycle's
// observation window: the same utilization formula the analytic study applies
// at run granularity (rtl.UtilAt x toggle probability), evaluated on the
// window's busy fraction.
func (c *Campaign) switching(m *rtl.LatchModel, g *golden, bucket int, cycle, windowCycles uint64, dataToggle float64) float64 {
	b := &m.Buckets[bucket]
	if b.Config || b.Weight == 0 {
		return 0
	}
	w := &g.timeline[windowIndex(g, cycle, windowCycles)]
	busy := w.busy[b.Unit]
	toggle := dataToggle
	if toggle <= 0 {
		toggle = rtl.DefaultToggle(busy)
	}
	return m.UtilAt(bucket, busy) * toggle
}

// windowIndex maps a cycle to its timeline window.
func windowIndex(g *golden, cycle, windowCycles uint64) int {
	i := int(cycle / windowCycles)
	if i >= len(g.timeline) {
		i = len(g.timeline) - 1
	}
	return i
}

// retiredAt interpolates the cumulative retired-instruction count at a cycle
// from the window timeline — the cycle -> dynamic-instruction mapping the
// replay route flips at.
func retiredAt(g *golden, cycle, windowCycles uint64) uint64 {
	i := windowIndex(g, cycle, windowCycles)
	w := &g.timeline[i]
	var startCycle, startRetired uint64
	if i > 0 {
		prev := &g.timeline[i-1]
		startCycle, startRetired = prev.end, prev.retired
	}
	span := w.end - startCycle
	if span == 0 || cycle <= startCycle {
		return startRetired
	}
	frac := float64(cycle-startCycle) / float64(span)
	return startRetired + uint64(frac*float64(w.retired-startRetired))
}

// goldenReplay runs the functional golden execution the replay route
// compares against.
func goldenReplay(w *workloads.Workload, budget uint64, g *golden) error {
	vm := isa.NewVM(w.Prog)
	n, err := vm.Run(budget, nil)
	if err != nil {
		return err
	}
	if n == 0 {
		return errors.New("golden replay retired no instructions")
	}
	g.vmSteps = n
	g.vmHash = vm.StateHash()
	g.vmHalted = vm.Halted()
	return nil
}

// replayTrial classifies a datapath upset by functional replay: re-execute
// the workload, flip one architectural bit at the dynamic instruction the
// injection cycle maps to, and compare final state against the golden run.
func replayTrial(w *workloads.Workload, g *golden, smt int, cycle uint64, unit uarch.Unit, r *rng) Outcome {
	windowCycles := g.timeline[0].end
	// The timeline counts retirements across all SMT threads; the replay is
	// one thread's architectural stream.
	inj := retiredAt(g, cycle, windowCycles) / uint64(smt)
	if inj >= g.vmSteps {
		inj = g.vmSteps - 1
	}
	vm := isa.NewVM(w.Prog)
	if inj > 0 {
		if n, err := vm.Run(inj, nil); err != nil || n < inj {
			// The golden prefix itself failed to replay: corrupted state was
			// never reached, so nothing was corrupted.
			return OutcomeMaskedArch
		}
	}
	flipArchBit(vm, unit, r)
	steps := inj
	for steps < g.vmSteps {
		_, ok, err := vm.Step()
		if err != nil {
			// The corruption steered execution somewhere illegal (indirect
			// branch out of range): a visible crash.
			return OutcomeDetected
		}
		if !ok {
			break
		}
		steps++
	}
	switch {
	case steps < g.vmSteps && !vm.Halted():
		// Fell off the end of code without halting: visible crash.
		return OutcomeDetected
	case steps == g.vmSteps && g.vmHalted && !vm.Halted():
		// Golden terminated here but the corrupted run is still going:
		// runaway execution (a flipped loop counter) — an architectural
		// hang.
		return OutcomeHang
	case vm.StateHash() == g.vmHash:
		return OutcomeMaskedArch
	default:
		return OutcomeSDC
	}
}

// flipArchBit flips one architectural register bit appropriate to the victim
// unit: integer/address state for FXU and LSU, vector state for VSU,
// accumulator state for MMA.
func flipArchBit(vm *isa.VM, unit uarch.Unit, r *rng) {
	switch unit {
	case uarch.UnitVSU:
		i := int(r.next() % isa.NumVSR)
		w := r.next() % 2
		vm.VSRs[i][w] ^= 1 << (r.next() % 64)
	case uarch.UnitMMA:
		i := int(r.next() % isa.NumACC)
		w := r.next() % 8
		vm.ACCs[i][w] ^= 1 << (r.next() % 64)
	default:
		i := int(r.next() % isa.NumGPR)
		vm.GPRs[i] ^= 1 << (r.next() % 64)
	}
}

// timingRequest builds the runner request for a control-unit upset: the same
// simulation as the golden run plus a single uarch-level upset.
func (c *Campaign) timingRequest(w *workloads.Workload, smt int, budget uint64, g *golden, cycle uint64, r *rng) runner.Request {
	u := &uarch.Upset{
		Cycle:  cycle,
		Target: uarch.UpsetTarget(r.next() % uint64(uarch.NumUpsetTargets)),
		Slot:   r.next(),
		Bit:    uint(r.next() % 64),
	}
	if u.Target == uarch.UpsetDone && r.next()%2 == 0 {
		// Half the completion-delay upsets use a short delay the pipeline
		// absorbs (retirement stalls but recovers); the rest wedge past the
		// no-progress window.
		u.DoneDelay = 200
	}
	// Leave room for the no-progress window to elapse past the injection
	// point so a wedged run is diagnosed rather than truncated.
	maxCycles := g.cycles + 400_000
	return runner.Request{
		Cfg: c.Cfg, W: w, SMT: smt, Budget: budget,
		MaxCycles: maxCycles, Upset: u, Chaos: c.Chaos,
	}
}

// timingOutcome maps a timing-route result to an outcome. A non-empty
// failure string marks a trial that could not be classified (transient
// failure that survived the retry budget).
func timingOutcome(r runner.Result) (Outcome, string) {
	err := r.Err
	if err == nil {
		// The run completed. In this simulator the architectural stream is
		// precomputed by the functional front end, so a control-latch upset
		// that does not wedge the pipeline perturbs only timing:
		// architecturally masked (whether or not it landed in live state).
		return OutcomeMaskedArch, ""
	}
	var hang *uarch.HangError
	if errors.As(err, &hang) {
		return OutcomeHang, ""
	}
	if errors.Is(err, context.DeadlineExceeded) {
		// The wall-clock watchdog beat the no-progress detector.
		return OutcomeHang, ""
	}
	return 0, err.Error()
}

// DefaultCases builds the standard validation workload set: zero- and
// random-data microprobe testcases (maximally different datapath toggle
// rates, hence different vulnerable fractions) plus the SPECint compression
// proxy as a phase-varied real workload.
func DefaultCases() ([]Case, error) {
	var cases []Case
	for _, data := range []microprobe.DataInit{microprobe.InitZero, microprobe.InitRandom} {
		tc, err := microprobe.Generate(microprobe.Params{SMT: 1, DepDistance: 0, Data: data})
		if err != nil {
			return nil, err
		}
		cases = append(cases, Case{W: tc.Workload, DataToggle: tc.DataToggle})
	}
	cases = append(cases, Case{W: workloads.Compress()})
	return cases, nil
}
