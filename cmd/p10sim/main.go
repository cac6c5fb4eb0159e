// Command p10sim runs one workload on a core configuration and prints a
// performance (and, when available, power) report.
//
// Usage:
//
//	p10sim -workload dgemm-mma -config POWER10 -smt 1
//	p10sim -workload dgemm-mma -trace t.json -sample 1000   # cycle-resolved
//	p10sim -list
//
// With -trace, the simulation records IPC, unit occupancy, branch/cache and
// component-power counter tracks every -sample cycles; load the file in
// chrome://tracing or Perfetto. The stdout report is unchanged by telemetry.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"power10sim/internal/cliutil"
	"power10sim/internal/power"
	"power10sim/internal/progress"
	"power10sim/internal/runlog"
	"power10sim/internal/runner"
	"power10sim/internal/sampling"
	"power10sim/internal/simobs"
	"power10sim/internal/telemetry"
	"power10sim/internal/uarch"
	"power10sim/internal/workloads"
)

func main() {
	fl := cliutil.Register(flag.CommandLine, "p10sim",
		cliutil.Metrics|cliutil.Trace|cliutil.FlightRec|cliutil.Serve|cliutil.RunLog)
	var (
		wlName     = flag.String("workload", "intcompute", "workload name (see -list)")
		cfgName    = flag.String("config", "POWER10", "POWER9 | POWER10 | POWER10-noMMA")
		smt        = flag.Int("smt", 1, "number of hardware threads (copies of the workload)")
		budget     = flag.Uint64("budget", 0, "dynamic instruction budget per thread (0 = workload default)")
		list       = flag.Bool("list", false, "list workloads and exit")
		sample     = flag.Uint64("sample", 1000, "cycle-sampling interval for -trace counter tracks (0 = off)")
		sampleMode = flag.String("sample-mode", "full", "full | sampled | validate: time every instruction, run the SimPoint-style sampling engine, or run both and compare")
	)
	flag.Parse()
	if err := fl.Validate(); err != nil {
		cliutil.Usagef("%v", err)
	}
	if *smt < 1 {
		cliutil.Usagef("-smt %d: must be >= 1", *smt)
	}
	switch *sampleMode {
	case "full":
	case "sampled", "validate":
		// Cycle-resolved telemetry and the live server narrate one complete
		// timed run; a sampled run is many short window simulations, so these
		// integrations only exist on the full path.
		if fl.Trace != "" {
			cliutil.Usagef("-trace requires -sample-mode=full (sampled runs have no cycle-resolved trace)")
		}
		if fl.Serve != "" {
			cliutil.Usagef("-serve requires -sample-mode=full")
		}
		if fl.RunLog != "" {
			cliutil.Usagef("-runlog requires -sample-mode=full (the ledger keys one complete timed run)")
		}
		if fl.FlightRec != "" {
			cliutil.Usagef("-flightrec requires -sample-mode=full (sampled runs publish no progress events to record)")
		}
	default:
		cliutil.Usagef("-sample-mode %q: must be full | sampled | validate", *sampleMode)
	}
	// -budget 0 is the "workload default" sentinel only when the flag is
	// unset; an explicit -budget 0 is a request for zero work and is rejected
	// instead of silently running the default budget.
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "budget" && *budget == 0 {
			cliutil.Usagef("-budget 0: must be > 0 (omit the flag for the workload default)")
		}
	})
	if *list {
		cat := workloads.Catalog()
		var names []string
		for n := range cat {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("%-16s %s\n", n, cat[n].Category)
		}
		return
	}
	req, err := runner.ResolveFull(*cfgName, *wlName, *smt, *budget)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	h := fl.Start(cliutil.Options{})
	defer h.Recorder.DumpOnPanic()
	if *sampleMode != "full" {
		os.Exit(h.Finish(runSampled(h, req, *sampleMode)))
	}
	os.Exit(h.Finish(run(h, req, *sample)))
}

// run is the full-mode path: one simulation published on the bus (so -serve
// clients see it on /events and /status), one ledger record carrying the
// same content key an identical runner request would, then the stdout
// report. SIGINT/SIGTERM cancel the simulation cooperatively through the
// core's context check. Returns the exit code.
func run(h *cliutil.Harness, req runner.Request, sample uint64) int {
	w, cfg, smt := req.W, req.Cfg, req.SMT
	simName := fmt.Sprintf("%s@%s/smt%d", w.Name, cfg.Name, smt)
	// Recorded before the simulation so /metrics has a sample while a long
	// run is still going, not only after it retires.
	h.Registry.Counter("sims_started_total",
		telemetry.L("workload", w.Name), telemetry.L("config", cfg.Name)).Add(1)
	h.Bus.Publish(progress.Event{Kind: progress.KindSimStarted, Sim: simName})
	h.Server.SetReady(true)
	simStart := time.Now()
	sp := h.Tracer.Begin("sim:"+simName, "p10sim")
	res, err := req.Simulate(uarch.WithContext(h.Ctx), simobs.SampleOption(cfg, h.Tracer, sample, smt))
	sp.End()
	rec := ledgerRecord(req, time.Since(simStart))
	if err != nil {
		h.Bus.Publish(progress.Event{Kind: progress.KindSimFailed, Sim: simName,
			Err: err.Error(), Elapsed: rec.WallSeconds})
		fmt.Fprintln(os.Stderr, err)
		h.Recorder.Note("sim failed: %v", err)
		rec.Err = err.Error()
		// A failed append resurfaces from the ledger's Close in Finish.
		_ = h.Ledger.Append(rec)
		return 1
	}
	a := &res.Activity
	rep := power.NewModel(cfg).Report(a)
	h.Bus.Publish(progress.Event{Kind: progress.KindSimFinished, Sim: simName,
		Elapsed: time.Since(simStart).Seconds(), IPC: a.IPC(), Power: rep.Total})
	cyc := float64(a.Cycles)
	rec.Cycles = a.Cycles
	rec.Instructions = a.Instructions
	rec.CPI = a.CPI()
	rec.IPC = a.IPC()
	rec.PowerTotal = rep.Total
	rec.EnergyTotal = rep.Total * cyc
	rec.EnergyClock = rep.Clock * cyc
	rec.EnergySwitching = rep.Switching * cyc
	rec.EnergyArray = rep.Array * cyc
	rec.EnergyLeakage = rep.Leakage * cyc
	if a.Instructions > 0 {
		rec.EPI = rec.EnergyTotal / float64(a.Instructions)
	}
	_ = h.Ledger.Append(rec)
	writeReport(os.Stdout, w, cfg, smt, a, rep)
	labels := []telemetry.Label{
		telemetry.L("workload", w.Name),
		telemetry.L("config", cfg.Name),
		telemetry.L("smt", fmt.Sprint(smt)),
	}
	h.Registry.Counter("sim_cycles_total", labels...).Add(a.Cycles)
	h.Registry.Counter("sim_instructions_total", labels...).Add(a.Instructions)
	h.Registry.Gauge("sim_ipc", labels...).Set(a.IPC())
	h.Registry.Gauge("sim_power_total", labels...).Set(rep.Total)
	return 0
}

// ledgerRecord is the ledger record of one full-mode run of req, keyed by
// the content key the runner's cache and ledger use for the same request,
// so ad-hoc p10sim runs join sweep history in p10query.
func ledgerRecord(req runner.Request, wall time.Duration) runlog.Record {
	key, _ := runner.ContentKey(req)
	return runlog.Record{
		Key: key, Config: req.Cfg.Name, Workload: req.W.Name, SMT: req.SMT,
		Budget: req.Budget, Warmup: req.Warmup, MaxCycles: req.MaxCycles,
		Tier: runlog.TierRun, Attempts: 1, WallSeconds: wall.Seconds(),
	}
}

// writeReport prints the full-mode stdout report.
func writeReport(out io.Writer, w *workloads.Workload, cfg *uarch.Config, smt int, a *uarch.Activity, rep *power.Report) {
	fmt.Fprintf(out, "workload        %s (SMT%d) on %s\n", w.Name, smt, cfg.Name)
	fmt.Fprintf(out, "cycles          %d\n", a.Cycles)
	fmt.Fprintf(out, "instructions    %d\n", a.Instructions)
	fmt.Fprintf(out, "internal ops    %d (fused pairs %d)\n", a.InternalOps, a.FusedPairs)
	fmt.Fprintf(out, "IPC             %.3f   CPI %.3f\n", a.IPC(), a.CPI())
	fmt.Fprintf(out, "flops/cycle     %.2f   (total %d)\n", a.FlopsPerCycle(), a.Flops)
	fmt.Fprintf(out, "branch MPKI     %.2f   wrong-path slots %d\n", a.MispredictsPerKI(), a.WrongPathSlots)
	fmt.Fprintf(out, "L1D miss rate   %.4f  (%d/%d)\n",
		float64(a.L1DMisses)/max1(a.L1DAccesses), a.L1DMisses, a.L1DAccesses)
	fmt.Fprintf(out, "L2 miss rate    %.4f  L3 acc %d  mem acc %d\n",
		float64(a.L2Misses)/max1(a.L2Accesses), a.L3Accesses, a.MemAccesses)
	fmt.Fprintf(out, "DERAT lookups   %d   TLB misses %d\n", a.DERATLookups, a.TLBMisses)
	fmt.Fprintf(out, "MMA ops         %d   active cycles %d\n", a.MMAOps, a.MMAActiveCycles)

	fmt.Fprintf(out, "power (total)   %.3f  [clock %.3f switch %.3f array %.3f leak %.3f]\n",
		rep.Total, rep.Clock, rep.Switching, rep.Array, rep.Leakage)
	fmt.Fprintf(out, "perf/W (norm)   %.4f\n", a.IPC()/rep.Total)
}

func max1(v uint64) float64 {
	if v == 0 {
		return 1
	}
	return float64(v)
}

// runSampled is the -sample-mode=sampled|validate path: run the workload
// through the SimPoint-style sampling engine and report the extrapolated
// estimate; in validate mode also run the full simulation and compare against
// the published error bounds (nonzero exit on violation). Returns the process
// exit code.
func runSampled(h *cliutil.Harness, req runner.Request, mode string) int {
	w, cfg, smt := req.W, req.Cfg, req.SMT
	spec := sampling.DefaultSpec()
	est, err := sampling.Run(cfg, w.Prog, req.Budget, req.Warmup, smt, req.MaxCycles, spec, uarch.WithContext(h.Ctx))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	a := &est.Activity
	m := &est.Meta
	fmt.Printf("workload        %s (SMT%d) on %s [sampled]\n", w.Name, smt, cfg.Name)
	fmt.Printf("intervals       %d x %d insts, %d phases, %d windows simulated\n",
		m.Intervals, m.Spec.IntervalInsts, m.K, m.Windows)
	fmt.Printf("timed insts     %d of %d covered (%.1fx effective speedup)\n",
		m.SimulatedInsts, m.ROIInsts, m.Speedup())
	fmt.Printf("cycles          %d (extrapolated)\n", a.Cycles)
	fmt.Printf("instructions    %d\n", a.Instructions)
	fmt.Printf("IPC             %.3f   CPI %.3f (95%% CI +/- %.4f)\n", a.IPC(), a.CPI(), m.CPIHalfWidth)
	fmt.Printf("flops/cycle     %.2f   (total %d)\n", a.FlopsPerCycle(), a.Flops)
	rep := est.Report
	fmt.Printf("power (total)   %.3f  [clock %.3f switch %.3f array %.3f leak %.3f] (95%% CI +/- %.3f)\n",
		rep.Total, rep.Clock, rep.Switching, rep.Array, rep.Leakage, m.PowerHalfWidth)
	fmt.Printf("perf/W (norm)   %.4f\n", a.IPC()/rep.Total)
	exit := 0
	if mode == "validate" {
		res, err := req.Simulate(uarch.WithContext(h.Ctx))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fullRep := power.NewModel(cfg).Report(&res.Activity)
		cpiErr := relErr(a.CPI(), res.Activity.CPI())
		powErr := relErr(rep.Total, fullRep.Total)
		fmt.Printf("validate        full CPI %.4f sampled %.4f (err %.2f%%, bound %.0f%%)\n",
			res.Activity.CPI(), a.CPI(), 100*cpiErr, 100*sampling.CPIErrBound)
		fmt.Printf("                full power %.3f sampled %.3f (err %.2f%%, bound %.0f%%)\n",
			fullRep.Total, rep.Total, 100*powErr, 100*sampling.PowerErrBound)
		if cpiErr > sampling.CPIErrBound || powErr > sampling.PowerErrBound {
			fmt.Println("validate        FAIL: error bound exceeded")
			exit = 1
		} else {
			fmt.Println("validate        ok")
		}
	}
	labels := []telemetry.Label{
		telemetry.L("workload", w.Name),
		telemetry.L("config", cfg.Name),
		telemetry.L("smt", fmt.Sprint(smt)),
	}
	reg := h.Registry
	reg.Counter("sampling_intervals_total", labels...).Add(uint64(m.Intervals))
	reg.Counter("sampling_simulated_total", labels...).Add(m.SimulatedInsts)
	reg.Gauge("sampling_speedup", labels...).Set(m.Speedup())
	reg.Gauge("sim_ipc", labels...).Set(a.IPC())
	reg.Gauge("sim_power_total", labels...).Set(rep.Total)
	return exit
}

// relErr is |got-want|/|want| (absolute error against a zero reference).
func relErr(got, want float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return 1
	}
	d := got - want
	if d < 0 {
		d = -d
	}
	if want < 0 {
		want = -want
	}
	return d / want
}
