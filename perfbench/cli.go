package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"power10sim/internal/sweep"
)

// workload is one benchmark workload: an end-to-end run of the CLIs and a
// traced in-process run of the same work.
type workload struct {
	name     string
	endToEnd func(*bench) (map[string]metric, error)
	traced   func(*bench) (map[string]metric, error)
}

var benchWorkloads = []workload{
	{"quick-sweep", (*bench).quickSweep, (*bench).tracedQuickSweep},
	{"explore-loop", (*bench).exploreLoop, (*bench).tracedExploreLoop},
}

func workloadNames() []string {
	var out []string
	for _, w := range benchWorkloads {
		out = append(out, w.name)
	}
	return out
}

func workloadByName(name string) (workload, bool) {
	for _, w := range benchWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// quickSetupReps is how often quick-sweep's set-up (CLI start-up) repeats;
// its setup_s is their median.
const quickSetupReps = 9

// proc is one finished child process.
type proc struct {
	stdout, stderr []byte
	wall, cpu      time.Duration
	maxRSSMB       float64
	err            error
}

// cli runs one of the built CLIs in dir with GOMAXPROCS set to the CPU
// count, waits for it to exit, and measures its wall time and peak RSS.
func (b *bench) cli(dir, name string, args ...string) proc {
	ctx, cancel := context.WithDeadline(b.ctx, b.deadline.Add(20*time.Second))
	defer cancel()
	cmd := exec.CommandContext(ctx, filepath.Join(b.bin, name), args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(b.nproc), "TMPDIR="+b.work)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	cmd.WaitDelay = 5 * time.Second
	start := time.Now()
	err := cmd.Run()
	p := proc{stdout: stdout.Bytes(), stderr: stderr.Bytes(), wall: time.Since(start)}
	if cmd.ProcessState != nil {
		p.cpu = cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			p.maxRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	if err != nil {
		msg := strings.TrimSpace(stderr.String())
		if i := strings.LastIndexByte(msg, '\n'); i >= 0 {
			msg = msg[i+1:]
		}
		p.err = fmt.Errorf("%s %s: %v (%s)", name, strings.Join(args, " "), err, msg)
	}
	return p
}

func (b *bench) jobs() string { return strconv.Itoa(b.nproc) }

// loop is the closed-loop client: it issues one iteration, waits for it to
// finish, then issues the next, until the run length has elapsed. At least
// one iteration runs, and none starts that would likely end past the hard
// limit.
func (b *bench) loop(iter func(i int) iteration) {
	start := time.Now()
	for i := 0; ; i++ {
		steal0, total0 := cpuTicks()
		it := iter(i)
		it.StealPct = stealPct(steal0, total0)
		b.rep.Iterations = append(b.rep.Iterations, it)
		last := time.Duration(it.WallS * float64(time.Second))
		if time.Since(start) >= b.seconds || time.Now().Add(last).After(b.deadline) || b.ctx.Err() != nil {
			return
		}
	}
}

// judge turns a finished iteration into its record. It fails when the
// command exited non-zero, when its stdout differs from the first
// iteration's, or when it differs from ref (if given).
func (b *bench) judge(i int, p proc, first *[]byte, ref []byte, refName string) iteration {
	it := iteration{WallS: p.wall.Seconds(), CPUS: p.cpu.Seconds(), MaxRSSMB: p.maxRSSMB, StdoutSHA256: digest(p.stdout), OK: true}
	fail := func(format string, args ...any) {
		it.OK = false
		fmt.Fprintf(os.Stderr, "perfbench: iteration %d failed: %s\n", i, fmt.Sprintf(format, args...))
	}
	switch {
	case p.err != nil:
		fail("%v", p.err)
	case i == 0:
		*first = p.stdout
	case !bytes.Equal(p.stdout, *first):
		fail("stdout differs from the first iteration: %s", firstDiff(*first, p.stdout))
	}
	if p.err == nil && ref != nil && !bytes.Equal(p.stdout, ref) {
		fail("stdout differs from the %s: %s", refName, firstDiff(ref, p.stdout))
	}
	return it
}

// endToEndMetrics assembles the end-to-end metrics from the set-up
// commands and the recorded iterations; perfWSource is a quick sweep's
// stdout, whose headline table and runner summary line it reads.
//
// Times are the child processes' CPU time, not their wall time: on a shared
// virtual machine the hypervisor's steal inflates short walls by up to half
// (README.md, End-to-end metrics), while CPU time excludes it. Wall times,
// and their median and tail, stay in the report.
func (b *bench) endToEndMetrics(setup []proc, perfWSource []byte) map[string]metric {
	var walls, cpus, setupCPUs, peaks []float64
	// Set-up commands are the workload's child processes too. For
	// explore-loop this keeps the metric off the seed: which design points
	// get simulated, and so the explore step's footprint, depends on it.
	setupPeak := 0.0
	for _, p := range setup {
		b.rep.Setup = append(b.rep.Setup, iteration{WallS: p.wall.Seconds(), CPUS: p.cpu.Seconds(),
			MaxRSSMB: p.maxRSSMB, StdoutSHA256: digest(p.stdout), OK: p.err == nil})
		setupCPUs = append(setupCPUs, p.cpu.Seconds())
		setupPeak = max(setupPeak, p.maxRSSMB)
	}
	ok := 0
	for _, it := range b.rep.Iterations {
		walls = append(walls, it.WallS)
		cpus = append(cpus, it.CPUS)
		// The peak after each iteration; their median, not their maximum,
		// so that a run with more iterations does not read higher.
		peaks = append(peaks, max(setupPeak, it.MaxRSSMB))
		if it.OK {
			ok++
		}
	}
	b.extra("wall_median_s", median(walls))
	if t, found := tailOf(walls); found {
		b.rep.WallTail = &t
	}
	if len(b.rep.Iterations) > 0 {
		b.rep.StdoutSHA256 = b.rep.Iterations[0].StdoutSHA256
	}
	perfW, err := parsePerfW(perfWSource)
	b.verify("headline-perfw-parsed", err == nil, "%v", err)
	sum, err := parseSummary(perfWSource)
	b.verify("runner-summary-parsed", err == nil, "%v", err)
	b.extra("sweep_summary", sum)
	return map[string]metric{
		"cpu_s":         {median(cpus), "s"},
		"setup_s":       {median(setupCPUs), "s"},
		"peak_rss_mb":   {median(peaks), "MB"},
		"ok_frac":       {float64(ok) / float64(max(1, len(walls))), "ratio"},
		"perfw_err_pct": {perfWErrPct(perfW), "%"},
	}
}

// quickSweepArgs is the cold quick sweep users and `make verify` run.
func (b *bench) quickSweepArgs(extra ...string) []string {
	return append([]string{"-quick", "-jobs", b.jobs()}, extra...)
}

// quickSweep: set-up is the CLI's start-up (process start, package init,
// listing the catalog), the only preparation a cold sweep has; each
// iteration is one cold `p10bench -quick`.
func (b *bench) quickSweep() (map[string]metric, error) {
	var setup []proc
	for i := 0; i < quickSetupReps; i++ {
		p := b.cli(b.work, "p10bench", "-list")
		if p.err != nil {
			return nil, fmt.Errorf("set-up: %w", p.err)
		}
		if n := bytes.Count(p.stdout, []byte("\n")); n != len(sweep.Catalog()) {
			return nil, fmt.Errorf("set-up: p10bench -list printed %d experiments, want %d", n, len(sweep.Catalog()))
		}
		setup = append(setup, p)
	}
	var first []byte
	b.loop(func(i int) iteration {
		return b.judge(i, b.cli(b.work, "p10bench", b.quickSweepArgs()...), &first, nil, "")
	})
	return b.endToEndMetrics(setup, first), nil
}

// explore-loop's parameters, shared by the CLI iterations and the traced run.
const (
	// exploreJobs is the simulation worker count of explore-loop's ledger
	// writers. Both the seed sweep and the explore step run serially: at
	// more workers the runner appends ledger records in completion order,
	// surrogate training is sensitive to row order, and train/validate
	// output then differs between repeats of the same seed (a program
	// defect, see README.md).
	exploreJobs      = 1
	explorePoints    = 5000
	exploreSims      = 24
	exploreWorkload  = "compile"
	holdoutFrac      = 0.25
	holdoutThreshold = 0.08
)

// exploreSteps is one explore-loop iteration, run in the iteration's own
// directory: train, explore with 24 real simulations and a retrain, then
// validate on a seeded holdout split.
func (b *bench) exploreSteps() [][]string {
	seed := strconv.FormatUint(b.seed, 10)
	return [][]string{
		{"-op", "train", "-runlog", "ledger", "-model", "model.json"},
		{"-op", "explore", "-model", "model.json", "-runlog", "ledger",
			"-points", strconv.Itoa(explorePoints), "-sims", strconv.Itoa(exploreSims),
			"-workload", exploreWorkload, "-seed", seed, "-jobs", strconv.Itoa(exploreJobs)},
		{"-op", "validate", "-runlog", "ledger", "-holdout", fmt.Sprint(holdoutFrac), "-seed", seed,
			"-threshold", fmt.Sprint(holdoutThreshold)},
	}
}

// exploreIteration runs the explore steps in dir on a fresh copy of the
// seed ledger, as one iteration: stdout concatenated, walls summed, peak RSS
// the largest of the three.
func (b *bench) exploreIteration(seedLedger, dir string) proc {
	if err := copyDir(seedLedger, filepath.Join(dir, "ledger")); err != nil {
		return proc{err: err}
	}
	defer os.RemoveAll(dir)
	var out proc
	var stdout bytes.Buffer
	for _, args := range b.exploreSteps() {
		p := b.cli(dir, "p10explore", args...)
		stdout.Write(p.stdout)
		out.wall += p.wall
		out.cpu += p.cpu
		out.maxRSSMB = max(out.maxRSSMB, p.maxRSSMB)
		if p.err != nil {
			out.err = p.err
			break
		}
	}
	out.stdout = stdout.Bytes()
	return out
}

// seedLedger runs the set-up quick sweep that seeds explore-loop's ledger.
func (b *bench) seedLedger() (string, proc) {
	led := filepath.Join(b.work, "seed-ledger")
	return led, b.cli(b.work, "p10bench", "-quick", "-jobs", strconv.Itoa(exploreJobs), "-runlog", led)
}

// exploreLoop: set-up is one quick sweep that seeds a ledger; each
// iteration runs train, explore and validate on a fresh copy of it.
func (b *bench) exploreLoop() (map[string]metric, error) {
	seedLed, p := b.seedLedger()
	if p.err != nil {
		return nil, fmt.Errorf("set-up: %w", p.err)
	}
	var first []byte
	b.loop(func(i int) iteration {
		return b.judge(i, b.exploreIteration(seedLed, filepath.Join(b.work, "iter-"+strconv.Itoa(i))), &first, nil, "")
	})
	v, err := parseValidate(first)
	b.verify("explore-validate-parsed", err == nil, "%v", err)
	b.extra("holdout_cpi_mape_pct", v.CPIMAPE)
	b.extra("served_frac", v.servedFrac())
	return b.endToEndMetrics([]proc{p}, p.stdout), nil
}

// lineWithPrefix returns the first line of out starting with prefix, or "".
func lineWithPrefix(out []byte, prefix string) string {
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, prefix) {
			return line
		}
	}
	return ""
}
