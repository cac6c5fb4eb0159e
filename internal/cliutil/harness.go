package cliutil

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"power10sim/internal/flightrec"
	"power10sim/internal/obsserver"
	"power10sim/internal/progress"
	"power10sim/internal/runlog"
	"power10sim/internal/runner"
	"power10sim/internal/telemetry"
)

// Flag selects shared flags for Register.
type Flag uint

// The shared flags. A command registers the ones it uses; each has one name,
// default and help string in every command.
const (
	Jobs Flag = 1 << iota
	Metrics
	Trace
	FlightRec
	Serve
	CacheDir
	RunLog
	RunLogSeries
)

// Flags holds the shared flags' values once the flag set is parsed.
type Flags struct {
	Jobs, RunLogSeries                                 int
	Metrics, Trace, FlightRec, Serve, CacheDir, RunLog string

	command string
	set     Flag
}

// flagDef is one shared flag: its value lives in num or str.
type flagDef struct {
	flag       Flag
	name, help string
	num        *int
	str        *string
}

func (f *Flags) defs() []flagDef {
	return []flagDef{
		{Jobs, "jobs", "max concurrent simulations (0 = GOMAXPROCS, 1 = serial)", &f.Jobs, nil},
		{Metrics, "metrics", "write a metrics-registry JSON snapshot to this file", nil, &f.Metrics},
		{Trace, "trace", "write a Chrome trace_event JSON file to this file", nil, &f.Trace},
		{FlightRec, "flightrec", "arm the flight recorder; dump its ring to this file on panic, SIGQUIT, watchdog kill, or drain", nil, &f.FlightRec},
		{Serve, "serve", "serve the live observability endpoints on this address (e.g. :9090, 127.0.0.1:0)", nil, &f.Serve},
		{CacheDir, "cachedir", "persist simulation results under this directory (shared across runs)", nil, &f.CacheDir},
		{RunLog, "runlog", "append one campaign-ledger record per completed simulation under this directory", nil, &f.RunLog},
		{RunLogSeries, "runlog-series", "with -runlog, also record a downsampled time series per executed sim, decimated to at most N frames (0 = off)", &f.RunLogSeries, nil},
	}
}

// Register defines the shared flags in set on fs for the named command.
func Register(fs *flag.FlagSet, command string, set Flag) *Flags {
	f := &Flags{command: command, set: set}
	for _, d := range f.defs() {
		switch {
		case set&d.flag == 0:
		case d.num != nil:
			fs.IntVar(d.num, d.name, 0, d.help)
		default:
			fs.StringVar(d.str, d.name, "", d.help)
		}
	}
	return f
}

// Validate checks the shared flags' values; its error is a usage error. It
// has no side effects, so a command may still return early (-list) after it.
func (f *Flags) Validate() error {
	if f.Jobs < 0 {
		return fmt.Errorf("-jobs %d: must be >= 0", f.Jobs)
	}
	if f.RunLogSeries < 0 {
		return fmt.Errorf("-runlog-series %d: must be >= 0", f.RunLogSeries)
	}
	if f.RunLogSeries != 0 && f.RunLog == "" {
		return fmt.Errorf("-runlog-series needs -runlog")
	}
	for _, d := range f.defs() {
		if d.flag&(Metrics|Trace|FlightRec) == 0 {
			continue
		}
		if err := CheckOutputPath(d.name, *d.str); err != nil {
			return err
		}
	}
	return nil
}

// Options is what a command adds to the shared start-up.
type Options struct {
	// Registry is kept whatever the flags say (a fabric worker's feeds the
	// coordinator's federated scrape); nil builds one only for -metrics or
	// a server.
	Registry *telemetry.Registry
	// Bus is one the command built before Start (p10coord's coordinator
	// publishes on it); nil builds a new one.
	Bus *progress.Bus
	// Console renders sweep events from the bus on stderr.
	Console bool
	// Server holds the command's own observability-server fields; Start
	// fills in Command, Registry, Bus, Stats and RunLog. A FederatedSnapshot
	// or FleetTrace set here is also what -metrics and -trace write.
	Server obsserver.Options
	// Listen serves on this address in place of -serve (p10coord's
	// -listen); Announce replaces "obsserver: listening on" as the prefix
	// of the stderr line that gives the server's URL.
	Listen, Announce string
	// Drain runs in Finish after the artifacts are written and before the
	// ledger closes (p10coord waits there for its fleet to deregister).
	Drain func()
}

// Harness is a command's shared run-time state. Fields a command's flags
// leave unused are nil; every one but Pool is a no-op when nil.
type Harness struct {
	// Ctx is canceled by SIGINT or SIGTERM: the cooperative drain.
	Ctx      context.Context
	Registry *telemetry.Registry
	Tracer   *telemetry.Tracer
	Bus      *progress.Bus
	// Pool exists when the command registered -jobs.
	Pool     *runner.Runner
	Ledger   *runlog.Ledger
	Recorder *flightrec.Recorder
	Server   *obsserver.Server

	flags    *Flags
	opts     Options
	console  *progress.Console
	stop     context.CancelFunc
	finished chan struct{}
	stderr   io.Writer
}

// Start builds what the shared flags ask for, in one order: registry and
// tracer, the SIGINT/SIGTERM context, bus and console, ledger, runner pool,
// the flight recorder with its SIGQUIT handler and drain flush, and the
// observability server. A bad -runlog or -cachedir is a usage error (exit 2);
// a server that cannot listen exits 1. Callers defer h.Recorder.DumpOnPanic()
// and end with os.Exit(h.Finish(code)).
func (f *Flags) Start(opts Options) *Harness {
	h := &Harness{Registry: opts.Registry, Bus: opts.Bus, flags: f, opts: opts,
		finished: make(chan struct{}), stderr: os.Stderr}
	addr := f.Serve
	if opts.Listen != "" {
		addr = opts.Listen
	}
	// Nil registry and tracer are valid no-op sinks; the server scrapes the
	// registry live, so serving implies one.
	if h.Registry == nil && (f.Metrics != "" || addr != "") {
		h.Registry = telemetry.NewRegistry()
	}
	if f.Trace != "" && opts.Server.FleetTrace == nil {
		h.Tracer = telemetry.NewTracer()
	}
	h.Ctx, h.stop = signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	if h.Bus == nil {
		h.Bus = progress.NewBus()
	}
	if opts.Console {
		h.console = progress.NewConsole(h.Bus, os.Stderr)
	}
	if f.RunLog != "" {
		led, err := runlog.Open(f.RunLog, runlog.Options{Command: f.command, SeriesFrames: f.RunLogSeries})
		if err != nil {
			Usagef("%v", err)
		}
		led.Instrument(h.Registry)
		h.Ledger = led
	}
	if f.set&Jobs != 0 {
		h.Pool = runner.New(f.Jobs)
		h.Pool.Instrument(h.Registry, h.Tracer)
		h.Pool.SetContext(h.Ctx)
		h.Pool.SetBus(h.Bus)
		if err := h.Pool.SetCacheDir(f.CacheDir); err != nil {
			Usagef("%v", err)
		}
		h.Pool.SetRunLog(h.Ledger)
	}
	// Armed only when requested: a nil recorder is a no-op everywhere, and
	// not subscribing keeps the unobserved-bus publish at one atomic load.
	if f.FlightRec != "" {
		h.Recorder = flightrec.New(flightrec.Options{
			Command:  f.command,
			Bus:      h.Bus,
			Registry: h.Registry,
			DumpPath: f.FlightRec,
			AutoDump: flightrec.WatchdogAutoDump,
		})
	}
	h.Recorder.ArmSIGQUIT(nil)
	go h.flushOnDrain()
	if addr != "" {
		so := opts.Server
		so.Command, so.Registry, so.Bus, so.RunLog = f.command, h.Registry, h.Bus, h.Ledger
		if h.Pool != nil {
			so.Stats = h.Pool.Stats
		}
		srv, err := obsserver.Start(addr, so)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		announce := opts.Announce
		if announce == "" {
			announce = "obsserver: listening on"
		}
		fmt.Fprintf(os.Stderr, "%s %s\n", announce, srv.URL())
		h.Server = srv
	}
	return h
}

// flushOnDrain writes the artifacts the moment a drain begins, so a drain
// that then wedges (a stuck worker, an unreachable coordinator) still leaves
// a record. Finish writes them again; both writes are atomic, so the last
// complete file wins.
func (h *Harness) flushOnDrain() {
	select {
	case <-h.finished:
		return
	case <-h.Ctx.Done():
	}
	h.Recorder.Note("drain signal received")
	h.writeArtifacts("drain", false)
}

// writeArtifacts writes every requested artifact atomically, going on past
// a failed write. With report set it prints one line per artifact and
// returns 1 if any write failed.
func (h *Harness) writeArtifacts(reason string, report bool) int {
	metrics := h.Registry.Snapshot
	if h.opts.Server.FederatedSnapshot != nil {
		metrics = h.opts.Server.FederatedSnapshot
	}
	trace := h.Tracer.WriteJSON
	if h.opts.Server.FleetTrace != nil {
		trace = h.opts.Server.FleetTrace
	}
	exit := 0
	for _, a := range []struct {
		name, path string
		write      func(io.Writer) error
	}{
		{"metrics", h.flags.Metrics, func(w io.Writer) error { return metrics().WriteJSON(w) }},
		{"trace", h.flags.Trace, trace},
		{"flightrec", h.flags.FlightRec, func(w io.Writer) error { return h.Recorder.WriteJSON(w, reason) }},
	} {
		if a.path == "" {
			continue
		}
		err := telemetry.WriteFileAtomic(a.path, a.write)
		switch {
		case !report:
		case err != nil:
			fmt.Fprintf(h.stderr, "%s: %v\n", a.name, err)
			exit = 1
		default:
			fmt.Fprintf(h.stderr, "%s: wrote %s\n", a.name, a.path)
		}
	}
	return exit
}

// StopConsole flushes and detaches the stderr console, so the command's own
// summary lines follow every progress line. Finish calls it too.
func (h *Harness) StopConsole() { h.console.Stop() }

// Finish shuts the command down in the one order: stop the console, write
// every requested artifact, run the command's Drain, close the ledger and
// print its summary, shut the server down, close the bus. It returns exit,
// raised to at least 1 when an artifact write, a ledger append or the
// ledger's close failed.
func (h *Harness) Finish(exit int) int {
	close(h.finished)
	h.StopConsole()
	if h.writeArtifacts("end of run", true) != 0 {
		exit = max(exit, 1)
	}
	if h.opts.Drain != nil {
		h.opts.Drain()
	}
	if h.Ledger != nil {
		recs, n := h.Ledger.Appended()
		if err := h.Ledger.Close(); err != nil {
			fmt.Fprintln(h.stderr, err)
			exit = max(exit, 1)
		}
		line := fmt.Sprintf("runlog: %d records (%d B)", recs, n)
		if h.Ledger.SeriesEnabled() {
			line += fmt.Sprintf(", %d series", h.Ledger.SeriesAppended())
		}
		fmt.Fprintf(h.stderr, "%s appended under %s\n", line, h.Ledger.Dir())
	}
	if h.Server != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		h.Server.Shutdown(ctx)
		cancel()
	}
	h.Bus.Close()
	h.stop()
	return exit
}
