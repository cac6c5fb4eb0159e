package pmgmt

import (
	"testing"

	"power10sim/internal/power"
	"power10sim/internal/powermodel"
	"power10sim/internal/trace"
	"power10sim/internal/uarch"
	"power10sim/internal/workloads"
)

func report(t *testing.T, cfg *uarch.Config, w *workloads.Workload) *power.Report {
	t.Helper()
	res, err := uarch.Simulate(cfg, []trace.Stream{trace.NewVMStream(w.Prog, w.Budget)},
		30_000_000, uarch.WithWarmup(w.Warmup))
	if err != nil {
		t.Fatal(err)
	}
	return power.NewModel(cfg).Report(&res.Activity)
}

func TestWOFBoostsLightWorkloads(t *testing.T) {
	cfg := uarch.POWER10()
	wof := NewWOF(report(t, cfg, workloads.Stressmark(true)))
	stressBoost := wof.Boost(report(t, cfg, workloads.Stressmark(true)))
	if stressBoost > 1.001 {
		t.Errorf("stressmark boosted %.3fx; the design point must not boost", stressBoost)
	}
	lightBoost := wof.Boost(report(t, cfg, workloads.GraphOpt()))
	if lightBoost < 1.05 {
		t.Errorf("memory-bound workload boost %.3fx, want > 1.05", lightBoost)
	}
	if lightBoost > wof.FmaxScale {
		t.Errorf("boost %.3f exceeds Fmax cap", lightBoost)
	}
	midBoost := wof.Boost(report(t, cfg, workloads.Compress()))
	if midBoost <= 1.0 || midBoost > lightBoost {
		t.Errorf("mid workload boost %.3f not between 1 and %.3f", midBoost, lightBoost)
	}
}

func TestWOFIsDeterministic(t *testing.T) {
	// The paper stresses determinism: same workload, same sort => same
	// boost. Two independent runs must agree exactly.
	cfg := uarch.POWER10()
	wof := NewWOF(report(t, cfg, workloads.Stressmark(true)))
	b1 := wof.Boost(report(t, cfg, workloads.XMLTrans()))
	b2 := wof.Boost(report(t, cfg, workloads.XMLTrans()))
	if b1 != b2 {
		t.Errorf("boost not deterministic: %v vs %v", b1, b2)
	}
}

func TestMMAGatingIncreasesWOFHeadroom(t *testing.T) {
	// Section IV-A: the power-gated MMA's reclaimed leakage becomes boost.
	cfg := uarch.POWER10()
	wof := NewWOF(report(t, cfg, workloads.Stressmark(true)))
	rep := report(t, cfg, workloads.IntCompute())
	gated := wof.Boost(rep)
	// Same workload with the MMA forced on (no gating).
	repOn := *rep
	repOn.Leakage += 0.02 // ungated MMA leakage
	repOn.Total += 0.02
	on := wof.Boost(&repOn)
	if gated <= on {
		t.Errorf("gated boost %.4f <= ungated %.4f", gated, on)
	}
}

func proxyDataset(t *testing.T) *powermodel.Dataset {
	t.Helper()
	ws := []*workloads.Workload{
		workloads.IntCompute(), workloads.Compress(), workloads.MediaVec(),
		workloads.BoardEval(), workloads.XMLTrans(), workloads.Stressmark(true),
	}
	ds, err := powermodel.Collect(uarch.POWER10(), ws, 2500)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestProxyDesignSixteenCounters(t *testing.T) {
	ds := proxyDataset(t)
	p, err := DesignProxy(ds, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Counters) > 16 {
		t.Errorf("proxy uses %d counters, cap is 16", len(p.Counters))
	}
	// Hardware constraint: all weights non-negative.
	for i, c := range p.Model.Coef {
		if c < 0 {
			t.Errorf("counter %s has negative weight %v", p.Counters[i], c)
		}
	}
	// Paper: ~9.8% active-power error for the 16-counter design.
	if p.ActiveError > 15 {
		t.Errorf("16-counter proxy active error %.1f%%", p.ActiveError)
	}
}

func TestProxyAccuracyCurveShape(t *testing.T) {
	ds := proxyDataset(t)
	designs, err := DesignProxies(ds, 16)
	if err != nil {
		t.Fatal(err)
	}
	curve, err := designs.AccuracyCurve([]int{2, 4, 8, 16})
	if err != nil {
		t.Fatal(err)
	}
	if curve[2] < curve[16] {
		t.Errorf("Fig 15a shape violated: 2 counters %.1f%% < 16 counters %.1f%%", curve[2], curve[16])
	}
}

func TestGranularityErrorShape(t *testing.T) {
	// Fig. 15(b): near-best accuracy at >= 50-cycle windows, rapidly
	// degrading below.
	ds := proxyDataset(t)
	p, err := DesignProxy(ds, 16)
	if err != nil {
		t.Fatal(err)
	}
	w := workloads.Compress()
	mk := func() trace.Stream { return trace.NewVMStream(w.Prog, w.Budget) }
	errs, err := GranularityError(p, uarch.POWER10(), mk, []uint64{10, 50, 500, 5000}, ds.IdleFloor)
	if err != nil {
		t.Fatal(err)
	}
	if errs[10] <= errs[500] {
		t.Errorf("10-cycle windows error %.1f%% <= 500-cycle %.1f%%", errs[10], errs[500])
	}
	if errs[5000] > 20 {
		t.Errorf("coarse-window error %.1f%% too high", errs[5000])
	}
}

func TestFitThrottleRespectsCap(t *testing.T) {
	cfg := uarch.POWER10()
	w := workloads.IntCompute()
	mk := func() trace.Stream { return trace.NewVMStream(w.Prog, 40_000) }
	full, err := uarch.Simulate(cfg, []trace.Stream{mk()}, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	fullPower := power.NewModel(cfg).Report(&full.Activity).Total
	cap := fullPower * 0.8
	chosen, levels, err := FitThrottle(cfg, mk, cap, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if chosen.Power > cap {
		t.Errorf("chosen level power %.3f exceeds cap %.3f", chosen.Power, cap)
	}
	if chosen.DecodeWidth >= cfg.DecodeWidth {
		t.Errorf("cap below full power but throttle kept full width")
	}
	if len(levels) != cfg.DecodeWidth {
		t.Errorf("%d levels explored", len(levels))
	}
	// Narrower width, lower power: monotone trend at the extremes.
	if levels[0].Power <= levels[len(levels)-1].Power {
		t.Errorf("throttling did not reduce power: %.3f -> %.3f",
			levels[0].Power, levels[len(levels)-1].Power)
	}
}

func TestFitThrottleImpossibleCap(t *testing.T) {
	cfg := uarch.POWER10()
	w := workloads.IntCompute()
	mk := func() trace.Stream { return trace.NewVMStream(w.Prog, 20_000) }
	if _, _, err := FitThrottle(cfg, mk, 0.001, 10_000_000); err == nil {
		t.Error("impossible cap satisfied")
	}
}

func TestDDSProtectsMargin(t *testing.T) {
	// A current step (sudden workload change) droops the rail; the sensor
	// must catch it and hold margin above critical.
	series := make([]float64, 200)
	for i := range series {
		if i < 100 {
			series[i] = 0.3
		} else {
			series[i] = 2.4 // abrupt activity step
		}
	}
	dds := DefaultDDS()
	without := dds.SimulateDroop(series, false)
	with := dds.SimulateDroop(series, true)
	if without.Violations == 0 {
		t.Fatal("test stimulus causes no droop violations")
	}
	if with.Violations >= without.Violations {
		t.Errorf("DDS did not reduce violations: %d vs %d", with.Violations, without.Violations)
	}
	// The initial dip is physical; the sensor must not make anything worse.
	if with.MinMargin < without.MinMargin {
		t.Errorf("DDS min margin %.3f < unprotected %.3f", with.MinMargin, without.MinMargin)
	}
	if with.SensorFirings == 0 || with.ThrottledSlots == 0 {
		t.Error("sensor never fired")
	}
}

func TestDDSQuietWorkloadUntouched(t *testing.T) {
	series := make([]float64, 100)
	for i := range series {
		series[i] = 0.5
	}
	rep := DefaultDDS().SimulateDroop(series, true)
	if rep.SensorFirings != 0 || rep.ThrottledSlots != 0 {
		t.Error("sensor fired on steady current")
	}
	if rep.Violations != 0 {
		t.Error("steady current violated margin")
	}
}

func TestDroopSeriesFromWorkload(t *testing.T) {
	cfg := uarch.POWER10()
	w := workloads.Compress()
	mk := func() trace.Stream { return trace.NewVMStream(w.Prog, 60_000) }
	series, err := CurrentSeries(cfg, mk, 500, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) < 10 {
		t.Fatalf("only %d current samples", len(series))
	}
	rep := DefaultDDS().SimulateDroop(series, true)
	if rep.Samples != len(series) {
		t.Error("sample count mismatch")
	}
}

func TestMMAGateHintsHideWakeLatency(t *testing.T) {
	g := MMAGate{IdleBeforeOff: 3, WakeLatency: 50}
	active := []bool{false, false, false, false, true, false, false, false, false, true}
	noHints := make([]bool, len(active))
	rep := g.Evaluate(active, noHints)
	if rep.WakeStalls != 100 {
		t.Errorf("wake stalls %d, want 100 (two cold wakes)", rep.WakeStalls)
	}
	hints := make([]bool, len(active))
	hints[4], hints[9] = true, true
	rep = g.Evaluate(active, hints)
	if rep.WakeStalls != 0 {
		t.Errorf("hinted wake stalls %d, want 0", rep.WakeStalls)
	}
	if rep.GatedWindows == 0 {
		t.Error("gate never engaged")
	}
}
