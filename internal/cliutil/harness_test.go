package cliutil

import (
	"bytes"
	"flag"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"power10sim/internal/obsserver"
	"power10sim/internal/runlog"
)

const allFlags = Jobs | Metrics | Trace | FlightRec | Serve | CacheDir | RunLog | RunLogSeries

// syncBuffer is a stderr stand-in that goroutines may share.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// parse registers set on a fresh flag set, parses args and validates them:
// everything a command does before an early return such as -list.
func parse(t *testing.T, set Flag, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs, "test", set)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	return f
}

// start starts a harness whose Finish reports into the returned buffer.
func start(f *Flags, opts Options) (*Harness, *syncBuffer) {
	h := f.Start(opts)
	buf := new(syncBuffer)
	h.stderr = buf
	return h, buf
}

// TestEarlyReturnStartsNothing: registering, parsing and validating every
// shared flag starts no goroutine (signal handler, console, recorder, drain
// flush, server) and creates no file or directory, so a command that
// returns before Start (-list) leaves nothing behind.
func TestEarlyReturnStartsNothing(t *testing.T) {
	dir := t.TempDir()
	paths := map[string]string{}
	var args []string
	for _, name := range []string{"metrics", "trace", "flightrec", "cachedir", "runlog"} {
		paths[name] = filepath.Join(dir, name)
		args = append(args, "-"+name, paths[name])
	}
	before := runtime.NumGoroutine()
	parse(t, allFlags, append(args, "-serve", "127.0.0.1:0", "-jobs", "2", "-runlog-series", "8")...)
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("flag handling started %d goroutine(s)", n-before)
	}
	for name, p := range paths {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("-%s %s exists before Start (stat err %v)", name, p, err)
		}
	}
}

// TestSharedFlagsRegisterOnce: each shared flag has one name, default and
// help string, whichever subset a command registers.
func TestSharedFlagsRegisterOnce(t *testing.T) {
	fs := flag.NewFlagSet("all", flag.ContinueOnError)
	Register(fs, "all", allFlags)
	all := map[string]*flag.Flag{}
	fs.VisitAll(func(fl *flag.Flag) { all[fl.Name] = fl })
	defs := (&Flags{}).defs()
	if len(all) != len(defs) {
		t.Fatalf("registered %d flags, want %d", len(all), len(defs))
	}
	for _, d := range defs {
		want := all[d.name]
		if want == nil || want.Usage != d.help || want.Usage == "" {
			t.Fatalf("-%s: registered %+v, want help %q", d.name, want, d.help)
		}
		one := flag.NewFlagSet(d.name, flag.ContinueOnError)
		Register(one, d.name, d.flag)
		n := 0
		one.VisitAll(func(fl *flag.Flag) {
			n++
			if fl.Name != d.name || fl.Usage != want.Usage || fl.DefValue != want.DefValue {
				t.Errorf("-%s alone registered -%s %q (default %q)", d.name, fl.Name, fl.Usage, fl.DefValue)
			}
		})
		if n != 1 {
			t.Errorf("-%s alone registered %d flags", d.name, n)
		}
	}
}

// TestFailedWriteDoesNotStopTheRest: a metrics write that fails still lets
// the trace and flight-recorder writes run, and fails the run.
func TestFailedWriteDoesNotStopTheRest(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "metrics.json")
	if err := os.Mkdir(metrics, 0o755); err != nil { // a directory cannot be renamed over
		t.Fatal(err)
	}
	trace, rec := filepath.Join(dir, "trace.json"), filepath.Join(dir, "flight.json")
	h, stderr := start(parse(t, Metrics|Trace|FlightRec,
		"-metrics", metrics, "-trace", trace, "-flightrec", rec), Options{})
	if code := h.Finish(0); code != 1 {
		t.Errorf("Finish = %d, want 1", code)
	}
	for _, p := range []string{trace, rec} {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("%s not written after the failed metrics write: %v", p, err)
		}
	}
	if out := stderr.String(); !strings.Contains(out, "metrics: ") || strings.Contains(out, "metrics: wrote") {
		t.Errorf("stderr does not report the failed metrics write:\n%s", out)
	}
}

// TestDrainFlushOnSignal: SIGINT cancels the harness context and the drain
// flush writes the artifacts before the command reaches Finish.
func TestDrainFlushOnSignal(t *testing.T) {
	dir := t.TempDir()
	metrics, rec := filepath.Join(dir, "metrics.json"), filepath.Join(dir, "flight.json")
	h, _ := start(parse(t, Metrics|FlightRec, "-metrics", metrics, "-flightrec", rec), Options{})
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case <-h.Ctx.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("SIGINT did not cancel the harness context")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		b, err := os.ReadFile(rec)
		if err == nil && bytes.Contains(b, []byte(`"reason": "drain"`)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no drain flight record (read err %v)", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := os.Stat(metrics); err != nil {
		t.Errorf("drain flush wrote no metrics: %v", err)
	}
	h.Finish(0)
}

// TestShutdownOrder: the ledger is closed (its summary printed) before the
// server begins shutting down, and the bus closes only after the server has
// finished its in-flight requests.
func TestShutdownOrder(t *testing.T) {
	stderr := new(syncBuffer)
	inFlight := make(chan struct{})
	atShutdown := make(chan string, 1)
	var served atomic.Bool
	// The handler stays in flight until the listener refuses connections,
	// that is until Shutdown has begun; Shutdown then waits for it.
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(inFlight)
		for {
			c, err := net.Dial("tcp", r.Host)
			if err != nil {
				break
			}
			c.Close()
			time.Sleep(20 * time.Millisecond)
		}
		atShutdown <- stderr.String()
		served.Store(true)
	})
	f := parse(t, Serve|RunLog, "-serve", "127.0.0.1:0", "-runlog", filepath.Join(t.TempDir(), "runs"))
	h := f.Start(Options{Server: obsserver.Options{Fabric: slow}})
	h.stderr = stderr
	url := h.Server.URL()
	go func() {
		client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
		if resp, err := client.Get(url + "/fabric/slow"); err == nil {
			resp.Body.Close()
		}
	}()
	<-inFlight
	sub := h.Bus.Subscribe(1)
	busClosedEarly := make(chan bool, 1)
	go func() {
		for range sub.C() {
		}
		busClosedEarly <- !served.Load()
	}()
	h.Finish(0)
	if out := <-atShutdown; !strings.Contains(out, "runlog: 0 records") {
		t.Errorf("server shut down before the ledger closed; stderr then:\n%s", out)
	}
	if <-busClosedEarly {
		t.Error("bus closed while the server was still serving a request")
	}
}

// TestLedgerErrorFailsRun: a ledger append that did not reach disk is
// reported on stderr and fails the run, in every command.
func TestLedgerErrorFailsRun(t *testing.T) {
	h, stderr := start(parse(t, RunLog, "-runlog", t.TempDir()), Options{})
	// With its file handle gone every append fails, as on a full disk.
	h.Ledger.Close()
	if err := h.Ledger.Append(runlog.Record{Key: "k"}); err == nil {
		t.Fatal("append without a file handle succeeded")
	}
	if code := h.Finish(0); code != 1 {
		t.Errorf("Finish = %d, want 1", code)
	}
	if out := stderr.String(); !strings.Contains(out, "1 append(s) failed") {
		t.Errorf("stderr does not report the failed append:\n%s", out)
	}
}
