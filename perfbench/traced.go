package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"time"

	"power10sim/internal/experiments"
	"power10sim/internal/mlfit"
	"power10sim/internal/power"
	"power10sim/internal/powermodel"
	"power10sim/internal/runlog"
	"power10sim/internal/runner"
	"power10sim/internal/sampling"
	"power10sim/internal/surrogate"
	"power10sim/internal/sweep"
	"power10sim/internal/trace"
	"power10sim/internal/uarch"
	"power10sim/internal/workloads"
)

// layerUnits lists every per-layer metric with its unit. A traced run
// reports all of them; a layer the workload does not exercise reads 0.
func layerUnits() map[string]string {
	u := map[string]string{
		"uarch.ns_per_instr": "ns", "uarch.busy_s": "s", "uarch.calls": "count",
		"uarch.sim_instrs": "count", "uarch.sim_cycles": "count",
		"trace.vmbuild_us": "us", "trace.vmbuild_calls": "count", "trace.vmbuild_busy_s": "s",
		"trace.stream_ns_per_instr": "ns",
		"power.report_us":           "us", "power.report_calls": "count",
		"runner.requests": "count", "runner.unique_runs": "count", "runner.memo_hit_ratio": "ratio",
		"runner.utilization": "ratio", "runner.disk_hits": "count", "runner.disk_read_bytes": "B",
		"runner.disk_load_us": "us", "runner.disk_written_bytes": "B",
		"runlog.append_us": "us", "runlog.appended_bytes": "B", "runlog.scan_ms": "ms",
		"runlog.records_scanned": "count", "runlog.corrupt_lines": "count",
		"powermodel.collect_s": "s", "mlfit.fit_s": "s",
		"surrogate.corpus_s": "s", "surrogate.train_s": "s", "surrogate.explore_s": "s",
		"surrogate.validate_s": "s", "surrogate.predict_ns": "ns", "surrogate.served_frac": "ratio",
		"surrogate.holdout_cpi_mape_pct": "%",
		"experiments.self_s":             "s",
		"trace_overhead":                 "ratio",
	}
	for _, e := range sweep.Catalog() {
		u["experiments."+e.Name+"_s"] = "s"
	}
	return u
}

// layers accumulates one traced run's per-layer values.
type layers map[string]float64

func (l layers) metrics() map[string]metric {
	out := map[string]metric{}
	for name, unit := range layerUnits() {
		out[name] = metric{l[name], unit}
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// simLayers fills the uarch, trace and power layers from the executor's
// spans and counts.
func (l layers) simLayers(spans []span, ex *executor) {
	t := tallies(spans)
	sim, vm, rep := t["uarch.Simulate"], t["trace.NewVMStream"], t["power.Report"]
	instrs := ex.instrs.Load()
	l["uarch.calls"] = float64(sim.n)
	l["uarch.busy_s"] = sim.busy.Seconds()
	l["uarch.sim_instrs"] = float64(instrs)
	l["uarch.sim_cycles"] = float64(ex.cycles.Load())
	l["uarch.ns_per_instr"] = ratio(float64(sim.busy.Nanoseconds()), float64(instrs))
	l["trace.vmbuild_calls"] = float64(vm.n)
	l["trace.vmbuild_busy_s"] = vm.busy.Seconds()
	l["trace.vmbuild_us"] = float64(vm.perCall().Nanoseconds()) / 1e3
	l["power.report_calls"] = float64(rep.n)
	l["power.report_us"] = float64(rep.perCall().Nanoseconds()) / 1e3
}

// runnerLayers fills the runner layer from its stats; busy is the
// executor's summed request time over a pass of length wall.
func (l layers) runnerLayers(st runner.Stats, busy, wall time.Duration, workers int) {
	total := st.Hits + st.Misses
	l["runner.requests"] = float64(total)
	l["runner.unique_runs"] = float64(st.Misses)
	l["runner.memo_hit_ratio"] = ratio(float64(st.Hits), float64(total))
	l["runner.utilization"] = ratio(busy.Seconds(), wall.Seconds()*float64(workers))
}

// experimentLayers fills one wall time per catalog entry (its run plus its
// table render) and the experiments' self time: the part of each experiment
// no simulation request covers.
func (l layers) experimentLayers(spans []span) {
	reqs := map[int][]span{}
	render := map[int]time.Duration{}
	for _, s := range spans {
		switch {
		case s.Name == "runner.exec":
			reqs[s.Parent] = append(reqs[s.Parent], s)
		case strings.HasPrefix(s.Name, "render:"):
			render[s.Parent] += s.dur()
		}
	}
	var self time.Duration
	for _, s := range spans {
		if name, ok := strings.CutPrefix(s.Name, "exp:"); ok {
			l["experiments."+name+"_s"] += (s.dur() + render[s.ID]).Seconds()
			self += selfTime(s, reqs[s.ID]) + render[s.ID]
		}
	}
	l["experiments.self_s"] = self.Seconds()
}

// timedRenderer records a span around an experiment's table render.
type timedRenderer struct {
	sweep.Renderer
	rec    *recorder
	name   string
	parent int
}

func (t timedRenderer) Table() string {
	id := t.rec.begin("render:"+t.name, 0, t.parent, 0)
	out := t.Renderer.Table()
	t.rec.end(id)
	return out
}

// tracedSweep runs the quick catalog in-process through r, exactly as
// p10bench -quick does, with a span per experiment and per table render;
// r's executor is ex. It returns the sweep's stdout and wall time.
func (b *bench) tracedSweep(r *runner.Runner, ex *executor, rec *recorder) ([]byte, time.Duration, error) {
	cat := sweep.Catalog()
	for i := range cat {
		name, run := cat[i].Name, cat[i].Run
		cat[i].Run = func(o experiments.Options) (sweep.Renderer, error) {
			id := rec.begin("exp:"+name, 0, 0, 0)
			ex.parent.Store(int64(id))
			out, err := run(o)
			ex.parent.Store(0)
			rec.end(id)
			if err != nil {
				return nil, err
			}
			return timedRenderer{out, rec, name, id}, nil
		}
	}
	// As in p10bench, a signal cancels in-flight simulations.
	r.SetContext(b.ctx)
	var stdout bytes.Buffer
	failures := new(experiments.FailureLog)
	opt := experiments.Options{Quick: true, Jobs: r.Workers(), Runner: r, Failures: failures}
	start := time.Now()
	out := sweep.Run(b.ctx, &stdout, cat, "", opt, nil, nil)
	wall := time.Since(start)
	sweep.Summary(&stdout, r.Stats())
	if len(out.Failed) > 0 || failures.Count() > 0 || b.ctx.Err() != nil {
		return stdout.Bytes(), wall, fmt.Errorf("traced sweep degraded: failed experiments %v, %d failed points%s",
			out.Failed, failures.Count(), failures.Summary())
	}
	return stdout.Bytes(), wall, nil
}

// tracedPass records the traced in-process pass as an iteration, failing it
// when it errored or its stdout differs from the CLI's.
func (b *bench) tracedPass(out []byte, wall time.Duration, err error, cliStdout []byte) {
	first := cliStdout
	b.rep.Iterations = append(b.rep.Iterations, b.judge(1, proc{stdout: out, wall: wall, err: err}, &first, nil, ""))
}

// keepTrace writes the run's spans as a Chrome trace under
// .bench_build/results/ and validates it with p10obscheck, requiring at
// least one span named with prefix require.
func (b *bench) keepTrace(rec *recorder, require string) {
	path, err := b.resultPath("trace.json")
	if err == nil {
		err = writeChromeTrace(path, rec.closed())
	}
	if err == nil {
		err = b.cli(b.work, "p10obscheck", "-trace", path, "-require-span", require).err
	}
	b.verify("chrome-trace-valid", err == nil, "%v", err)
}

// fig11Constraints are the four model-fitting constraint sets of Fig. 11.
var fig11Constraints = []mlfit.Options{
	{Intercept: true},
	{Intercept: true, Ridge: 0.5},
	{Intercept: true, NonNegative: true},
	{},
}

// fitLayers times the power-model corpus collection and the legacy fits
// behind Fig. 11/12 on the quick sweep's inputs.
func (b *bench) fitLayers(l layers, rec *recorder) error {
	cfg := uarch.POWER10()
	ws := append(workloads.SPECintSuite(), workloads.Stressmark(true), workloads.ActiveIdle())
	var ds *powermodel.Dataset
	var err error
	l["powermodel.collect_s"] = rec.timed("powermodel.CollectJobs", 0, func() {
		ds, err = powermodel.CollectJobs(cfg, ws, 4000, b.nproc)
	}).Seconds()
	if err != nil {
		return err
	}
	l["mlfit.fit_s"] = rec.timed("mlfit.fit", 0, func() {
		for _, opt := range fig11Constraints {
			if _, err = powermodel.ErrorCurve(ds, []int{1, 2, 4, 8, 16, 24}, opt); err != nil {
				return
			}
		}
		if _, err = powermodel.FitTopDown(ds, 16, mlfit.Options{Intercept: true}); err != nil {
			return
		}
		_, err = powermodel.FitBottomUp(ds, 3, mlfit.Options{Intercept: true})
	}).Seconds()
	return err
}

// streamLayer drains a fresh VM stream of every distinct (program, budget)
// the sweep simulated and reports host ns per streamed instruction.
func (b *bench) streamLayer(l layers, rec *recorder, reqs []runner.Request) error {
	seen := map[string]bool{}
	var n uint64
	var busy time.Duration
	for _, req := range reqs {
		k := fmt.Sprintf("%s|%d", runner.WorkloadFingerprint(req.W), req.Budget)
		if seen[k] {
			continue
		}
		seen[k] = true
		s := trace.NewVMStream(req.W.Prog, req.Budget)
		busy += rec.timed("trace.drain", 0, func() {
			for {
				if _, ok := s.Next(); !ok {
					break
				}
				n++
			}
		})
		if err := s.Err(); err != nil {
			return fmt.Errorf("drain %s: %w", req.W.Name, err)
		}
	}
	l["trace.stream_ns_per_instr"] = ratio(float64(busy.Nanoseconds()), float64(n))
	return nil
}

// tracedQuickSweep: the CLI sweep once untraced, then the same sweep
// in-process through the benchmark executor, whose stdout must match the
// CLI's; then the fits and stream drains the sweep's layers stand on, and
// the cache and ledger passes of cacheLayers.
func (b *bench) tracedQuickSweep() (map[string]metric, error) {
	var cliStdout []byte
	cli := b.cli(b.work, "p10bench", b.quickSweepArgs()...)
	b.rep.Iterations = append(b.rep.Iterations, b.judge(0, cli, &cliStdout, nil, ""))
	rec := newRecorder()
	ex := newExecutor(rec, b.nproc)
	r := runner.New(b.nproc)
	r.SetExecutor(ex.run)
	out, wall, err := b.tracedSweep(r, ex, rec)
	b.tracedPass(out, wall, err, cliStdout)
	b.rep.StdoutSHA256 = digest(out)

	l := layers{}
	spans := rec.closed()
	l.simLayers(spans, ex)
	l.runnerLayers(r.Stats(), tallies(spans)["runner.exec"].busy, wall, b.nproc)
	l.experimentLayers(spans)
	l["trace_overhead"] = ratio(wall.Seconds(), cli.wall.Seconds())
	if err := b.fitLayers(l, rec); err != nil {
		return nil, err
	}
	if err := b.streamLayer(l, rec, ex.requests()); err != nil {
		return nil, err
	}
	if err := b.cacheLayers(l, rec, cliStdout); err != nil {
		return nil, err
	}
	b.keepTrace(rec, "uarch.Simulate")
	return l.metrics(), nil
}

// uniqueRequests deduplicates requests by content key, ordered by key.
func uniqueRequests(reqs []runner.Request) []runner.Request {
	byKey := map[string]runner.Request{}
	for _, req := range reqs {
		if k, ok := runner.ContentKey(req); ok {
			byKey[k] = req
		}
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]runner.Request, len(keys))
	for i, k := range keys {
		out[i] = byKey[k]
	}
	return out
}

// cacheLayers measures the disk-cache and ledger layers on the quick sweep,
// as `p10bench -cachedir` and `-runlog` exercise them. An in-process cold
// sweep fills a cache and records its requests; a warm sweep replays it
// against that cache with a fresh ledger; both must print the CLI's stdout.
// Then every recorded request goes through Do on a fresh runner pointed at
// the warm cache, and every ledger record is appended again to a fresh
// ledger, each call timed with a span in rec.
func (b *bench) cacheLayers(l layers, rec *recorder, cliStdout []byte) error {
	cache := filepath.Join(b.work, "cache")
	cold := runner.New(b.nproc)
	if err := cold.SetCacheDir(cache); err != nil {
		return err
	}
	coldEx := newExecutor(newRecorder(), b.nproc)
	cold.SetExecutor(coldEx.run)
	out, wall, err := b.tracedSweep(cold, coldEx, coldEx.rec)
	b.tracedPass(out, wall, err, cliStdout)
	if err != nil {
		return fmt.Errorf("cold cache pass: %w", err)
	}
	l["runner.disk_written_bytes"] = float64(cold.Stats().DiskWrittenBytes)

	ledDir := filepath.Join(b.work, "ledger-warm")
	led, err := runlog.Open(ledDir, runlog.Options{Command: "p10bench"})
	if err != nil {
		return err
	}
	warmEx := newExecutor(newRecorder(), b.nproc)
	r := runner.New(b.nproc)
	if err := r.SetCacheDir(cache); err != nil {
		return err
	}
	r.SetRunLog(led)
	r.SetExecutor(warmEx.run)
	out, wall, err = b.tracedSweep(r, warmEx, warmEx.rec)
	_, appended := led.Appended()
	if cerr := led.Close(); err == nil {
		err = cerr
	}
	b.tracedPass(out, wall, err, cliStdout)
	if err != nil {
		return fmt.Errorf("warm cache pass: %w", err)
	}
	st := r.Stats()
	l["runner.disk_hits"] = float64(st.DiskHits)
	l["runner.disk_read_bytes"] = float64(st.DiskReadBytes)
	l["runlog.appended_bytes"] = float64(appended)
	b.verify("warm-pass-no-simulation", len(warmEx.requests()) == 0,
		"the warm pass simulated %d requests", len(warmEx.requests()))

	// Per-request loads against the warm cache. Every disk load recomputes
	// the power report; it must equal one computed from the loaded activity.
	warm := runner.New(b.nproc)
	if err := warm.SetCacheDir(cache); err != nil {
		return err
	}
	reqs := uniqueRequests(coldEx.requests())
	mismatched := 0
	for i, req := range reqs {
		var res runner.Result
		rec.timed("runner.Do", 0, func() { res = warm.Do(req) })
		if res.Err != nil || res.Activity == nil {
			return fmt.Errorf("warm load %d: %v", i, res.Err)
		}
		if !reflect.DeepEqual(power.NewModel(req.Cfg).Report(res.Activity), res.Report) {
			mismatched++
		}
	}
	b.verify("warm-report-recompute-identical", mismatched == 0, "%d of %d recomputed reports differ", mismatched, len(reqs))
	b.verify("warm-loads-all-disk-hits", warm.Stats().DiskHits == uint64(len(reqs)),
		"%d disk hits for %d requests", warm.Stats().DiskHits, len(reqs))
	l["runner.disk_load_us"] = float64(tallies(rec.closed())["runner.Do"].perCall().Nanoseconds()) / 1e3

	recs, _, err := runlog.ScanDir(ledDir)
	if err != nil {
		return err
	}
	again, err := runlog.Open(filepath.Join(b.work, "ledger-append"), runlog.Options{Command: "p10bench"})
	if err != nil {
		return err
	}
	for _, rc := range recs {
		rec.timed("runlog.Append", 0, func() { err = again.Append(rc) })
		if err != nil {
			break
		}
	}
	if cerr := again.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	l["runlog.append_us"] = float64(tallies(rec.closed())["runlog.Append"].perCall().Nanoseconds()) / 1e3
	return nil
}

// p10explore's defaults for the explore requests exploreSteps leaves unset.
const (
	exploreBudget    = 50000
	exploreWarmup    = 2000
	exploreMaxCycles = 80_000_000
)

// tracedExploreLoop: one explore iteration through the CLI, untraced, then
// the same train/explore/validate in-process on a fresh copy of the seed
// ledger; its simulated count and held-out numbers must match the CLI's.
// Between explore and validate it also times per-point prediction over the
// design space and a ledger scan.
func (b *bench) tracedExploreLoop() (map[string]metric, error) {
	l := layers{}
	seedLed, p := b.seedLedger()
	if p.err != nil {
		return nil, fmt.Errorf("set-up: %w", p.err)
	}
	var cliStdout []byte
	cli := b.exploreIteration(seedLed, filepath.Join(b.work, "iter-cli"))
	b.rep.Iterations = append(b.rep.Iterations, b.judge(0, cli, &cliStdout, nil, ""))
	cliV, err := parseValidate(cliStdout)
	if err != nil {
		return nil, err
	}

	dir := filepath.Join(b.work, "iter-traced")
	ledDir := filepath.Join(dir, "ledger")
	if err := copyDir(seedLed, ledDir); err != nil {
		return nil, err
	}
	rec := newRecorder()
	ex := newExecutor(rec, exploreJobs)
	var (
		c     *surrogate.Corpus
		model *surrogate.Model
		res   *surrogate.ExploreResult
		v     *surrogate.ValidateResult
		busy  time.Duration // the replicated CLI work, for trace_overhead
	)
	// step times one replicated CLI operation; the explore step's
	// simulations become its children.
	step := func(name, metric string, fn func() error) error {
		id := rec.begin(name, 0, 0, 0)
		ex.parent.Store(int64(id))
		err := fn()
		ex.parent.Store(0)
		d := rec.end(id)
		busy += d
		if metric != "" {
			l[metric] += d.Seconds()
		}
		return err
	}
	modelPath := filepath.Join(dir, "model.json")
	err = step("surrogate.LoadCorpus", "surrogate.corpus_s", func() (err error) {
		c, err = surrogate.LoadCorpus(ledDir, surrogate.CorpusOptions{})
		return err
	})
	if err == nil {
		err = step("surrogate.Train", "surrogate.train_s", func() (err error) {
			model, err = surrogate.Train(c, surrogate.TrainOptions{})
			return err
		})
	}
	if err == nil {
		err = step("surrogate.SaveLoad", "", func() error {
			if err := model.Save(modelPath); err != nil {
				return err
			}
			loaded, err := surrogate.Load(modelPath)
			model = loaded
			return err
		})
	}
	wl := workloads.Catalog()[exploreWorkload]
	pool := runner.New(exploreJobs)
	pool.SetExecutor(ex.run)
	var appended uint64
	if err == nil {
		err = step("surrogate.Explore", "surrogate.explore_s", func() error {
			led, err := runlog.Open(ledDir, runlog.Options{Command: "p10explore"})
			if err != nil {
				return err
			}
			pool.SetRunLog(led)
			res, err = surrogate.Explore(model, surrogate.ExploreOptions{
				Points: explorePoints, Seed: b.seed, Workload: wl, Budget: exploreBudget,
				Warmup: exploreWarmup, MaxCycles: exploreMaxCycles, Rank: "epi", TopK: 20,
				Threshold: surrogate.DefaultThreshold, MaxSims: exploreSims, Runner: pool, Corpus: c,
			})
			_, appended = led.Appended()
			if cerr := led.Close(); err == nil {
				err = cerr
			}
			return err
		})
	}
	if err != nil {
		return nil, err
	}
	exploreWall := time.Duration(l["surrogate.explore_s"] * float64(time.Second))

	// Per-point prediction over the same design space, with the trained model.
	profile, err := sampling.Profile(wl.Prog, surrogate.ProfileBudget)
	if err != nil {
		return nil, err
	}
	pts := surrogate.Space(explorePoints, b.seed)
	var buf surrogate.PredictBuf
	predict := rec.timed("surrogate.Predict", 0, func() {
		for _, pt := range pts {
			model.Predict(&buf, pt.Cfg, wl.Name, profile, pt.SMT, exploreBudget, exploreWarmup)
		}
	})
	l["surrogate.predict_ns"] = ratio(float64(predict.Nanoseconds()), float64(len(pts)))

	var recs []runlog.Record
	var scan runlog.ScanStats
	d := rec.timed("runlog.ScanDir", 0, func() { recs, scan, err = runlog.ScanDir(ledDir) })
	if err != nil {
		return nil, err
	}
	l["runlog.scan_ms"] = float64(d.Nanoseconds()) / 1e6
	l["runlog.records_scanned"] = float64(len(recs))
	l["runlog.corrupt_lines"] = float64(scan.Corrupt)

	err = step("surrogate.Validate", "surrogate.validate_s", func() error {
		c2, err := surrogate.LoadCorpus(ledDir, surrogate.CorpusOptions{})
		if err != nil {
			return err
		}
		v, err = surrogate.Validate(c2, holdoutFrac, b.seed, holdoutThreshold, surrogate.TrainOptions{})
		return err
	})
	if err != nil {
		return nil, err
	}
	cpi := v.TargetError("cpi")
	if cpi == nil || v.TestRows == 0 {
		return nil, fmt.Errorf("validate: no cpi error or no held-out rows")
	}
	l["surrogate.served_frac"] = ratio(float64(v.ServedRows), float64(v.TestRows))
	l["surrogate.holdout_cpi_mape_pct"] = cpi.MAPE

	simLine := fmt.Sprintf("simulated: %d of %d points (%.2f%%), %d failed, retrained %v",
		res.Simulated, res.Total, 100*float64(res.Simulated)/float64(res.Total), res.SimFailed, res.Retrained)
	same := lineWithPrefix(cliStdout, "simulated: ") == simLine &&
		v.ServedRows == cliV.Served && v.TestRows == cliV.Test &&
		fmt.Sprintf("%.2f", cpi.MAPE) == fmt.Sprintf("%.2f", cliV.CPIMAPE)
	it := iteration{WallS: busy.Seconds(), StdoutSHA256: digest([]byte(simLine)), OK: same}
	if !same {
		fmt.Fprintf(os.Stderr, "perfbench: traced explore differs from the CLI: %q, served %d/%d, cpi %.2f%% vs CLI served %d/%d, cpi %.2f%%\n",
			simLine, v.ServedRows, v.TestRows, cpi.MAPE, cliV.Served, cliV.Test, cliV.CPIMAPE)
	}
	b.rep.Iterations = append(b.rep.Iterations, it)
	b.rep.StdoutSHA256 = digest(cliStdout)

	spans := rec.closed()
	l.simLayers(spans, ex)
	l.runnerLayers(pool.Stats(), tallies(spans)["runner.exec"].busy, exploreWall, pool.Workers())
	l["runlog.appended_bytes"] = float64(appended)
	l["trace_overhead"] = ratio(busy.Seconds(), cli.wall.Seconds())
	b.keepTrace(rec, "surrogate.")
	return l.metrics(), nil
}
