// Command perfbench is the repository's benchmark. It drives two
// closed-loop workloads through the real CLIs built from this tree and
// reports end-to-end metrics (-trace 0), or runs the same work in-process
// with a span around every call into a layer's public functions and reports
// per-layer metrics (-trace 1). README.md in this directory says why each
// workload and metric was chosen.
//
// Run it from the repository root through run.sh, which builds the CLIs and
// this program first:
//
//	bash perfbench/run.sh --workload quick-sweep --seed 1 --seconds 30 --trace 0
//
// The last stdout line is the result: {"correct", "attempted", "failed",
// "metrics"}. The line before it is the full report (run environment,
// per-iteration walls and output digests, every check), which is also kept
// under .bench_build/results/ together with the traced run's Chrome trace.
package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hardLimit bounds one invocation: no iteration starts that would not end
// well before the 180 s a run may take.
const hardLimit = 150 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// check is one correctness gate the run evaluated.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// iteration is one closed-loop command (or command sequence) of a workload.
type iteration struct {
	WallS float64 `json:"wall_s"`
	// CPUS is the child processes' user + system CPU time.
	CPUS     float64 `json:"cpu_s"`
	MaxRSSMB float64 `json:"max_rss_mb"`
	// StealPct is the hypervisor's steal share of all CPU time while the
	// iteration ran (see environment.StealPct).
	StealPct     float64 `json:"steal_pct"`
	StdoutSHA256 string  `json:"stdout_sha256"`
	OK           bool    `json:"ok"`
}

// environment is recorded with every result, so runs taken on a loaded
// machine can be set aside.
type environment struct {
	Nproc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
	LoadBefore   string `json:"loadavg_before"`
	LoadAfter    string `json:"loadavg_after"`
	// StealPct is the share of CPU time the hypervisor gave to other guests
	// during the run, from /proc/stat; on a shared virtual machine a high
	// value marks a run whose walls are inflated.
	StealPct  float64 `json:"steal_pct"`
	StartedAt string  `json:"started_at"`
	TotalS    float64 `json:"total_s"`
}

// report is the full record of one invocation.
type report struct {
	Workload     string         `json:"workload"`
	Seed         uint64         `json:"seed"`
	Seconds      int            `json:"seconds"`
	Trace        int            `json:"trace"`
	Env          environment    `json:"env"`
	Setup        []iteration    `json:"setup,omitempty"`
	Iterations   []iteration    `json:"iterations,omitempty"`
	WallTail     *tail          `json:"wall_tail_s,omitempty"`
	StdoutSHA256 string         `json:"stdout_sha256,omitempty"`
	Extra        map[string]any `json:"extra,omitempty"`
	Checks       []check        `json:"checks"`
	Result       result         `json:"result"`
}

// bench is one invocation's state.
type bench struct {
	ctx      context.Context
	root     string // checkout root, the working directory
	bin      string // directory holding the built CLIs
	work     string // scratch directory, removed at exit
	nproc    int
	seed     uint64
	seconds  time.Duration
	deadline time.Time
	rep      *report
}

func main() { os.Exit(run()) }

func run() int {
	var (
		wl      = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Uint64("seed", 1, "input seed (explore-loop's design-space and holdout-split seed)")
		seconds = flag.Int("seconds", 30, "measured run length in seconds")
		traced  = flag.Int("trace", 0, "0: end-to-end run of the CLIs; 1: traced in-process run with per-layer metrics")
	)
	flag.Parse()
	w, ok := workloadByName(*wl)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload in {%s}, -seconds >= 1, -trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	start := time.Now()
	b := &bench{
		ctx: ctx, nproc: runtime.NumCPU(), seed: *seed,
		seconds: time.Duration(*seconds) * time.Second, deadline: start.Add(hardLimit),
		rep: &report{Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *traced},
	}
	// No command gets more workers than the machine has CPUs; the traced
	// run's in-process simulations obey the same limit.
	runtime.GOMAXPROCS(b.nproc)
	// run.sh starts the benchmark from the checkout root, where it has put
	// the CLIs under .bench_build/bin.
	root, err := os.Getwd()
	b.root, b.bin = root, filepath.Join(root, ".bench_build", "bin")
	if err == nil {
		err = os.MkdirAll(filepath.Join(b.root, ".bench_build", "work"), 0o755)
	}
	if err == nil {
		b.work, err = os.MkdirTemp(filepath.Join(b.root, ".bench_build", "work"), w.name+"-")
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(b.work)
	b.rep.Env = b.environment(start)
	steal0, total0 := cpuTicks()

	var metrics map[string]metric
	if *traced == 1 {
		metrics, err = w.traced(b)
	} else {
		metrics, err = w.endToEnd(b)
	}
	b.rep.Env.LoadAfter = loadAvg()
	b.rep.Env.StealPct = stealPct(steal0, total0)
	b.rep.Env.TotalS = time.Since(start).Seconds()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	res := result{Correct: true, Metrics: metrics}
	for _, it := range b.rep.Iterations {
		res.Attempted++
		if !it.OK {
			res.Failed++
		}
	}
	for _, c := range b.rep.Checks {
		if !c.OK {
			res.Correct = false
		}
	}
	res.Correct = res.Correct && res.Failed == 0 && res.Attempted > 0
	b.rep.Result = res
	if err := b.emit(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// verify records a correctness check; a failed one makes the result
// incorrect.
func (b *bench) verify(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
		fmt.Fprintf(os.Stderr, "perfbench: check %s failed: %s\n", name, c.Detail)
	}
	b.rep.Checks = append(b.rep.Checks, c)
}

// extra records a value in the report that is not one of the metrics.
func (b *bench) extra(name string, v any) {
	if b.rep.Extra == nil {
		b.rep.Extra = map[string]any{}
	}
	b.rep.Extra[name] = v
}

// emit prints the report line and the result line, and keeps the report
// under .bench_build/results/.
func (b *bench) emit() error {
	rep, err := json.Marshal(b.rep)
	if err != nil {
		return err
	}
	res, err := json.Marshal(b.rep.Result)
	if err != nil {
		return err
	}
	path, err := b.resultPath("report.json")
	if err == nil {
		err = os.WriteFile(path, append(rep, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: keep report: %v\n", err)
	}
	fmt.Printf("report: %s\n%s\n", rep, res)
	return nil
}

// resultPath names a per-run artifact under .bench_build/results/.
func (b *bench) resultPath(suffix string) (string, error) {
	dir := filepath.Join(b.root, ".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%s", b.rep.Workload, b.rep.Seed, b.rep.Trace, suffix)
	return filepath.Join(dir, name), nil
}

func (b *bench) environment(start time.Time) environment {
	env := environment{
		Nproc: b.nproc, GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: "unknown", LoadBefore: loadAvg(), StartedAt: start.UTC().Format(time.RFC3339),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	if sum, err := sourceDigest(b.root); err == nil {
		env.SourceSHA256 = sum
	}
	return env
}

// loadAvg returns the first three fields of /proc/loadavg, or "" where the
// platform has none.
func loadAvg() string {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return ""
	}
	f := strings.Fields(string(data))
	if len(f) < 3 {
		return ""
	}
	return strings.Join(f[:3], " ")
}

// stealPct is the steal share of all CPU time since cpuTicks returned
// steal0 and total0, in percent (0 where the platform has no /proc/stat).
func stealPct(steal0, total0 uint64) float64 {
	steal1, total1 := cpuTicks()
	if total1 <= total0 {
		return 0
	}
	return 100 * float64(steal1-steal0) / float64(total1-total0)
}

// cpuTicks returns the steal and total jiffies of the aggregate cpu line of
// /proc/stat, or zeros where the platform has none.
func cpuTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal [guest guest_nice]:
	// guest time is already counted in user, so it is left out of the total.
	for i, v := range f[1:9] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// sourceDigest hashes every Go source and module file of the checkout, so a
// result identifies the code it measured even where the checkout is not a
// git work tree.
func sourceDigest(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			return "", err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// firstDiff describes where two outputs first differ, for check details.
func firstDiff(a, b []byte) string {
	sa, sb := bufio.NewScanner(bytes.NewReader(a)), bufio.NewScanner(bytes.NewReader(b))
	for line := 1; ; line++ {
		oka, okb := sa.Scan(), sb.Scan()
		if !oka && !okb {
			return "outputs differ only in line endings"
		}
		if oka != okb || sa.Text() != sb.Text() {
			return fmt.Sprintf("line %d: %q vs %q", line, sa.Text(), sb.Text())
		}
	}
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
