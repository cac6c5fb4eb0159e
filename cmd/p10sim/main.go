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
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"power10sim/internal/cliutil"
	"power10sim/internal/flightrec"
	"power10sim/internal/obsserver"
	"power10sim/internal/power"
	"power10sim/internal/progress"
	"power10sim/internal/runlog"
	"power10sim/internal/runner"
	"power10sim/internal/sampling"
	"power10sim/internal/simobs"
	"power10sim/internal/telemetry"
	"power10sim/internal/trace"
	"power10sim/internal/uarch"
	"power10sim/internal/workloads"
)

func main() {
	var (
		wlName     = flag.String("workload", "intcompute", "workload name (see -list)")
		cfgName    = flag.String("config", "POWER10", "POWER9 | POWER10 | POWER10-noMMA")
		smt        = flag.Int("smt", 1, "number of hardware threads (copies of the workload)")
		budget     = flag.Uint64("budget", 0, "dynamic instruction budget per thread (0 = workload default)")
		list       = flag.Bool("list", false, "list workloads and exit")
		metricsOut = flag.String("metrics", "", "write a metrics-registry JSON snapshot to this file")
		traceOut   = flag.String("trace", "", "write a Chrome trace_event JSON file to this file")
		flightOut  = flag.String("flightrec", "", "arm the flight recorder; dump its ring to this file on panic, SIGQUIT, or drain")
		sample     = flag.Uint64("sample", 1000, "cycle-sampling interval for -trace counter tracks (0 = off)")
		sampleMode = flag.String("sample-mode", "full", "full | sampled | validate: time every instruction, run the SimPoint-style sampling engine, or run both and compare")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. :6060)")
		serveAddr  = flag.String("serve", "", "serve the live observability endpoints on this address (e.g. :9090)")
		runlogDir  = flag.String("runlog", "", "append this run's campaign-ledger record under this directory")
	)
	flag.Parse()
	if *smt < 1 {
		cliutil.Usagef("-smt %d: must be >= 1", *smt)
	}
	switch *sampleMode {
	case "full":
	case "sampled", "validate":
		// Cycle-resolved telemetry and the live server narrate one complete
		// timed run; a sampled run is many short window simulations, so these
		// integrations only exist on the full path.
		if *traceOut != "" {
			cliutil.Usagef("-trace requires -sample-mode=full (sampled runs have no cycle-resolved trace)")
		}
		if *serveAddr != "" {
			cliutil.Usagef("-serve requires -sample-mode=full")
		}
		if *runlogDir != "" {
			cliutil.Usagef("-runlog requires -sample-mode=full (the ledger keys one complete timed run)")
		}
		if *flightOut != "" {
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
	if err := cliutil.CheckOutputPath("metrics", *metricsOut); err != nil {
		cliutil.Usagef("%v", err)
	}
	if err := cliutil.CheckOutputPath("trace", *traceOut); err != nil {
		cliutil.Usagef("%v", err)
	}
	if err := cliutil.CheckOutputPath("flightrec", *flightOut); err != nil {
		cliutil.Usagef("%v", err)
	}
	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "pprof: %v\n", err)
			}
		}()
	}

	cat := workloads.Catalog()
	if *list {
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
	w, ok := cat[*wlName]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown workload %q (try -list)\n", *wlName)
		os.Exit(1)
	}
	cfg := uarch.ConfigByName(*cfgName)
	if cfg == nil {
		fmt.Fprintf(os.Stderr, "unknown config %q\n", *cfgName)
		os.Exit(1)
	}
	if w.Prog == nil {
		fmt.Fprintln(os.Stderr, "workload has no program")
		os.Exit(1)
	}
	bud := w.Budget
	if *budget > 0 {
		bud = *budget
	}
	if *sampleMode != "full" {
		os.Exit(runSampled(w, cfg, *smt, bud, *sampleMode, *metricsOut))
	}
	var reg *telemetry.Registry
	var tr *telemetry.Tracer
	if *metricsOut != "" || *serveAddr != "" {
		reg = telemetry.NewRegistry()
	}
	if *traceOut != "" {
		tr = telemetry.NewTracer()
	}
	// A single simulation still publishes its lifecycle on the progress bus
	// so -serve clients see the run on /events and /status; with no server
	// (and thus no subscriber) every Publish is a single atomic load.
	bus := progress.NewBus()
	// Armed only when requested: a nil recorder is a no-op everywhere, and
	// not subscribing keeps the unobserved-bus publish at one atomic load.
	var frec *flightrec.Recorder
	if *flightOut != "" {
		frec = flightrec.New(flightrec.Options{
			Command:  "p10sim",
			Bus:      bus,
			Registry: reg,
			DumpPath: *flightOut,
		})
	}
	frec.ArmSIGQUIT(nil)
	defer frec.DumpOnPanic()
	var server *obsserver.Server
	if *serveAddr != "" {
		var serr error
		server, serr = obsserver.Start(*serveAddr, obsserver.Options{
			Command: "p10sim", Registry: reg, Bus: bus,
		})
		if serr != nil {
			fmt.Fprintln(os.Stderr, serr)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "obsserver: listening on %s\n", server.URL())
	}
	// One-shot ledger append: the record carries the same content key the
	// runner's cache and ledger would use for an identical request, so ad-hoc
	// p10sim runs join sweep history in p10query.
	var led *runlog.Ledger
	if *runlogDir != "" {
		var lerr error
		led, lerr = runlog.Open(*runlogDir, runlog.Options{Command: "p10sim"})
		if lerr != nil {
			cliutil.Usagef("%v", lerr)
		}
	}
	logRun := func(rec runlog.Record) {
		if led == nil {
			return
		}
		if err := led.Append(rec); err != nil {
			fmt.Fprintf(os.Stderr, "runlog: %v\n", err)
		}
		led.Close()
		fmt.Fprintf(os.Stderr, "runlog: 1 record appended under %s\n", *runlogDir)
	}
	shutdown := func() {
		if server != nil {
			sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			server.Shutdown(sctx)
			cancel()
		}
		bus.Close()
	}
	server.SetReady(true)
	// SIGINT/SIGTERM cancel the simulation cooperatively through the core's
	// context check; the error path below still appends the ledger record,
	// publishes the failure event, shuts the server down, and exits nonzero —
	// the same graceful drain p10bench performs for a whole sweep.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	// The drain flush closes a gap the normal paths cannot: a canceled
	// simulation's error path exits before the telemetry writes below, and a
	// wedged drain never reaches them at all.
	cliutil.FlushOnDrain(ctx, func() {
		frec.Note("drain signal received")
		_ = frec.Dump("drain")
		if *metricsOut != "" && reg != nil {
			_ = reg.WriteFile(*metricsOut)
		}
	})
	simName := fmt.Sprintf("%s@%s/smt%d", w.Name, cfg.Name, *smt)
	// Recorded before Simulate so /metrics has a sample while the (possibly
	// long) simulation is still running, not only after it retires.
	if reg != nil {
		reg.Counter("sims_started_total",
			telemetry.L("workload", w.Name), telemetry.L("config", cfg.Name)).Add(1)
	}
	bus.Publish(progress.Event{Kind: progress.KindSimStarted, Sim: simName})
	simStart := time.Now()
	sp := tr.Begin("sim:"+simName, "p10sim")
	res, err := simulate(cfg, w, *smt, bud,
		uarch.WithContext(ctx),
		simobs.SampleOption(cfg, tr, *sample, *smt))
	sp.End()
	// The ledger record mirrors the simulation actually run above, so its
	// content key matches an identical runner request's.
	baseRec := func() runlog.Record {
		req := runner.Request{Cfg: cfg, W: w, SMT: *smt, Budget: bud,
			Warmup: w.Warmup * uint64(*smt), MaxCycles: maxCycles}
		key, _ := runner.ContentKey(req)
		return runlog.Record{
			Key: key, Config: cfg.Name, Workload: w.Name, SMT: *smt,
			Budget: bud, Warmup: req.Warmup, MaxCycles: req.MaxCycles,
			Tier: runlog.TierRun, Attempts: 1,
			WallSeconds: time.Since(simStart).Seconds(),
		}
	}
	if err != nil {
		bus.Publish(progress.Event{Kind: progress.KindSimFailed, Sim: simName,
			Err: err.Error(), Elapsed: time.Since(simStart).Seconds()})
		fmt.Fprintln(os.Stderr, err)
		rec := baseRec()
		rec.Err = err.Error()
		logRun(rec)
		_ = frec.Dump(fmt.Sprintf("sim failed: %v", err))
		shutdown()
		os.Exit(1)
	}
	a := &res.Activity
	mdl := power.NewModel(cfg)
	rep := mdl.Report(a)
	bus.Publish(progress.Event{Kind: progress.KindSimFinished, Sim: simName,
		Elapsed: time.Since(simStart).Seconds(), IPC: a.IPC(), Power: rep.Total})
	rec := baseRec()
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
	logRun(rec)
	writeReport(os.Stdout, w, cfg, *smt, a, rep)

	if reg != nil {
		labels := []telemetry.Label{
			telemetry.L("workload", w.Name),
			telemetry.L("config", cfg.Name),
			telemetry.L("smt", fmt.Sprint(*smt)),
		}
		reg.Counter("sim_cycles_total", labels...).Add(a.Cycles)
		reg.Counter("sim_instructions_total", labels...).Add(a.Instructions)
		reg.Gauge("sim_ipc", labels...).Set(a.IPC())
		reg.Gauge("sim_power_total", labels...).Set(rep.Total)
	}
	if *metricsOut != "" {
		if err := reg.WriteFile(*metricsOut); err != nil {
			fmt.Fprintf(os.Stderr, "metrics: %v\n", err)
			shutdown()
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "metrics: wrote %s\n", *metricsOut)
	}
	if *traceOut != "" {
		if err := tr.WriteFile(*traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			shutdown()
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "trace: wrote %s (%d events)\n", *traceOut, tr.Len())
	}
	if *flightOut != "" {
		if err := frec.DumpFile(*flightOut, "end of run"); err != nil {
			fmt.Fprintf(os.Stderr, "flightrec: %v\n", err)
			shutdown()
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "flightrec: wrote %s\n", *flightOut)
	}
	shutdown()
}

// maxCycles bounds every full-mode simulation.
const maxCycles = 50_000_000

// simulate runs the full-mode simulation: smt threads of w, each bud
// instructions long, with the workload's warmup scaled by the thread count.
func simulate(cfg *uarch.Config, w *workloads.Workload, smt int, bud uint64, opts ...uarch.SimOption) (*uarch.Result, error) {
	streams := trace.Threads(w.Prog, bud, smt)
	opts = append([]uarch.SimOption{uarch.WithWarmup(w.Warmup * uint64(smt))}, opts...)
	return uarch.Simulate(cfg, streams, maxCycles, opts...)
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
func runSampled(w *workloads.Workload, cfg *uarch.Config, smt int, bud uint64, mode, metricsOut string) int {
	spec := sampling.DefaultSpec()
	warmup := w.Warmup * uint64(smt)
	est, err := sampling.Run(cfg, w.Prog, bud, warmup, smt, maxCycles, spec)
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
		res, err := simulate(cfg, w, smt, bud)
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
	if metricsOut != "" {
		reg := telemetry.NewRegistry()
		labels := []telemetry.Label{
			telemetry.L("workload", w.Name),
			telemetry.L("config", cfg.Name),
			telemetry.L("smt", fmt.Sprint(smt)),
		}
		reg.Counter("sampling_intervals_total", labels...).Add(uint64(m.Intervals))
		reg.Counter("sampling_simulated_total", labels...).Add(m.SimulatedInsts)
		reg.Gauge("sampling_speedup", labels...).Set(m.Speedup())
		reg.Gauge("sim_ipc", labels...).Set(a.IPC())
		reg.Gauge("sim_power_total", labels...).Set(rep.Total)
		if err := reg.WriteFile(metricsOut); err != nil {
			fmt.Fprintf(os.Stderr, "metrics: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "metrics: wrote %s\n", metricsOut)
	}
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
