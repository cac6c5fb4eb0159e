// Package runner is the concurrent simulation runner behind the experiment
// harness. Every table and figure of the paper reduces to a set of
// independent (Config, Workload, SMT, budget) core simulations; the runner
// fans those out across a bounded worker pool and memoizes each unique
// simulation so that the many figures which revisit the same P9/P10 baseline
// points (the Section II-B headline, Table I, the Fig. 4 ablation ladder,
// Fig. 5/6, the WOF and socket studies) pay for it exactly once per process.
//
// Soundness of the cache rests on the simulator being deterministic: the
// timing model is trace driven with no randomized state, the functional
// executor is pure, and the power model iterates its component maps in
// sorted order — so two runs of the same request produce bit-identical
// Activity and Report values (see the determinism regression test in
// internal/experiments). Results are therefore returned in request order and
// a parallel sweep renders byte-identically to a serial one.
package runner

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"power10sim/internal/power"
	"power10sim/internal/progress"
	"power10sim/internal/runlog"
	"power10sim/internal/sampling"
	"power10sim/internal/telemetry"
	"power10sim/internal/trace"
	"power10sim/internal/uarch"
	"power10sim/internal/workloads"
)

// Request describes one independent core simulation: the exact work
// experiments.RunOn performs after budget scaling.
type Request struct {
	Cfg *uarch.Config
	W   *workloads.Workload
	// SMT is the hardware-thread count; values < 1 are treated as 1.
	SMT int
	// Budget is the per-thread dynamic-instruction budget (already divided
	// by SMT and scaled for quick mode by the caller).
	Budget uint64
	// Warmup is the instruction count excluded from measured statistics.
	Warmup uint64
	// MaxCycles bounds the simulation.
	MaxCycles uint64
	// Upset, when non-nil, injects a single-latch upset into the run (see
	// uarch.WithUpset). The upset parameters join the cache key: two
	// requests differing only in their upsets are distinct simulations.
	Upset *uarch.Upset
	// Chaos, when non-nil, forces failures into the execution path for
	// harness testing. Keyed by spec identity.
	Chaos *ChaosSpec
	// Sample, when non-nil, runs the simulation through the SimPoint-style
	// sampling engine instead of timing every instruction: phase-classify
	// the trace, simulate one representative interval per phase, and
	// extrapolate (see internal/sampling). The normalized spec joins the
	// cache key, so sampled and full results never collide. Requests with
	// an Upset always run full: fault injection targets a specific cycle of
	// the complete run, which a sampled run never reaches.
	Sample *sampling.Spec

	// series is the runner-attached time-series capture for this execution
	// (see SetRunLog); it never joins the cache key — recording is an
	// observation, not a different simulation.
	series *runlog.SeriesCapture
}

// Result is one simulation's outcome. Activity and Report are private copies:
// callers may inspect them freely without aliasing the cache.
type Result struct {
	Activity *uarch.Activity
	Report   *power.Report
	// Upset reports what an injected upset hit (nil without injection).
	Upset *uarch.UpsetOutcome
	Err   error
	// Attempts is how many executions the result took (1 without retries).
	Attempts int
	// Sampling carries the sampling metadata (interval/cluster counts,
	// confidence intervals, effective speedup) for sampled runs; nil for
	// full simulations.
	Sampling *sampling.Meta
	// Predicted carries the surrogate's uncertainty estimate when the result
	// was served by an installed Predictor instead of simulated; nil for real
	// (executed or cache-served) results.
	Predicted *PredictionMeta
}

// PredictionMeta is the error-bar metadata attached to a surrogate-served
// result: the model's relative standard errors for the headline metrics
// (log-space std, which for small values is the relative error).
type PredictionMeta struct {
	CPIRelStd   float64
	PowerRelStd float64
}

// clone returns a caller-owned copy of the result so cached values can never
// be mutated through a returned pointer.
func (r Result) clone() Result {
	out := Result{Err: r.Err, Attempts: r.Attempts}
	if r.Activity != nil {
		a := *r.Activity
		out.Activity = &a
	}
	if r.Report != nil {
		rep := *r.Report
		rep.Components = append([]float64(nil), r.Report.Components...)
		out.Report = &rep
	}
	if r.Upset != nil {
		u := *r.Upset
		out.Upset = &u
	}
	if r.Sampling != nil {
		m := *r.Sampling
		out.Sampling = &m
	}
	if r.Predicted != nil {
		p := *r.Predicted
		out.Predicted = &p
	}
	return out
}

// runCtx executes the simulation once. It mirrors the original serial
// experiments.RunOn body (including its error formatting), plus the hardened
// execution options: cooperative cancellation, a strict cycle limit so a
// wedged run surfaces as a diagnostic HangError instead of silently
// truncated statistics, and optional fault injection.
func (r Request) runCtx(ctx context.Context) Result {
	if r.Chaos != nil {
		if err := r.Chaos.act(ctx); err != nil {
			return Result{Err: err}
		}
	}
	smt := r.SMT
	if smt < 1 {
		smt = 1
	}
	if r.Sample != nil && r.Upset == nil {
		// Sampled path: representative-interval simulation + extrapolation.
		// Upset requests fall through to the full simulation — an injected
		// fault targets a specific cycle of the complete run.
		var extra []uarch.SimOption
		if ctx != nil && ctx.Done() != nil {
			extra = append(extra, uarch.WithContext(ctx))
		}
		est, err := sampling.Run(r.Cfg, r.W.Prog, r.Budget, r.Warmup, smt, r.MaxCycles, *r.Sample, extra...)
		if err != nil {
			return Result{Err: fmt.Errorf("%s on %s (SMT%d, sampled): %w", r.W.Name, r.Cfg.Name, smt, err)}
		}
		act := est.Activity
		return Result{Activity: &act, Report: est.Report, Sampling: &est.Meta}
	}
	streams := trace.Threads(r.W.Prog, r.Budget, smt)
	opts := []uarch.SimOption{uarch.WithWarmup(r.Warmup), uarch.WithStrictCycleLimit()}
	if ctx != nil && ctx.Done() != nil {
		opts = append(opts, uarch.WithContext(ctx))
	}
	if r.series != nil {
		opts = append(opts, r.series.Option())
	}
	if r.Upset != nil {
		opts = append(opts, uarch.WithUpset(r.Upset))
	}
	res, err := uarch.Simulate(r.Cfg, streams, r.MaxCycles, opts...)
	if err != nil {
		return Result{Err: fmt.Errorf("%s on %s (SMT%d): %w", r.W.Name, r.Cfg.Name, smt, err)}
	}
	rep := power.NewModel(r.Cfg).Report(&res.Activity)
	act := res.Activity
	return Result{Activity: &act, Report: rep, Upset: res.Upset}
}

// entry is one cache slot. The first requester computes the result and
// closes ready; concurrent requesters for the same key wait on it
// (singleflight), so an in-flight simulation is never duplicated.
type entry struct {
	ready chan struct{}
	res   Result
}

// Stats reports cache effectiveness and pool pressure for a sweep. Hits and
// Misses are deterministic for a given request sequence; QueueWait and
// PeakInFlight depend on scheduling and worker count, so callers report them
// on diagnostic channels (p10bench prints them to stderr), never as part of
// the byte-identical stdout contract.
type Stats struct {
	// Hits counts requests served from the cache (including waits on an
	// in-flight identical request).
	Hits uint64
	// Misses counts simulations actually executed (unique requests).
	Misses uint64
	// QueueWait is the total time executed requests spent waiting for a
	// worker slot before their simulation started.
	QueueWait time.Duration
	// PeakInFlight is the maximum number of simulations executing
	// simultaneously over the runner's lifetime.
	PeakInFlight int
	// Retries counts re-executions after transient failures.
	Retries uint64
	// Panics counts panics recovered inside workers.
	Panics uint64
	// Timeouts counts attempts aborted by the per-simulation watchdog.
	Timeouts uint64
	// Cancels counts attempts aborted by context cancellation (SIGINT).
	Cancels uint64
	// Uncached counts results withheld from the memoization cache because
	// their error was transient (the cache-poisoning guard).
	Uncached uint64
	// Remote counts executions served by an installed Executor (the
	// distributed sweep fabric) instead of the local pool.
	Remote uint64
	// DiskHits / DiskMisses count persistent-cache lookups (SetCacheDir).
	// They partition the memo Misses above: a disk hit is still a memo miss
	// (a unique request this process), so Hits/Misses — and the stdout
	// summary built from them — are unchanged by the disk layer.
	DiskHits   uint64
	DiskMisses uint64
	// DiskCorrupt counts corrupt or truncated persistent-cache entries that
	// were quarantined (renamed to <key>.bad) instead of served.
	DiskCorrupt uint64
	// DiskReadBytes / DiskWrittenBytes account persistent-cache I/O.
	DiskReadBytes    uint64
	DiskWrittenBytes uint64
	// Predicted counts requests served by the installed surrogate Predictor
	// (see SetPredictor); PredictDeclined counts requests the predictor was
	// offered but passed on (unsupported shape or uncertainty above the
	// confidence gate), which then fell through to real execution.
	Predicted       uint64
	PredictDeclined uint64
}

// obs holds the runner's telemetry handles. All fields are nil until
// Instrument is called; every metric method is nil-safe, so the
// uninstrumented hot path pays only dead branches.
type obs struct {
	hits, misses, coalesced *telemetry.Counter
	retries, panics         *telemetry.Counter
	timeouts, cancels       *telemetry.Counter
	uncached                *telemetry.Counter
	remote                  *telemetry.Counter
	diskHits, diskMisses    *telemetry.Counter
	diskCorrupt             *telemetry.Counter
	diskReadBytes           *telemetry.Counter
	diskWrittenBytes        *telemetry.Counter
	queueWait, runLatency   *telemetry.Histogram
	busyWorkers             *telemetry.Gauge
	peakInFlight            *telemetry.Gauge
	samplingIntervals       *telemetry.Counter
	samplingSimulated       *telemetry.Counter
	samplingSpeedup         *telemetry.Gauge
	predicted               *telemetry.Counter
	predictDeclined         *telemetry.Counter
	tracer                  *telemetry.Tracer
}

// Policy is the runner's fault-tolerance configuration. The zero value is
// the pre-hardening behavior: no watchdog, no retries (panics are still
// recovered and transient errors still bypass the cache).
type Policy struct {
	// Timeout is the per-attempt wall-clock watchdog: each execution runs
	// under a context deadline and is cooperatively aborted (and treated as
	// transient) when it expires. 0 disables the watchdog.
	Timeout time.Duration
	// MaxAttempts bounds executions per request for transient failures
	// (panics, timeouts, tagged errors). Values < 1 mean 1: no retry.
	MaxAttempts int
	// Backoff is the base delay before the first retry; subsequent retries
	// double it (capped at 16x) with deterministic jitter derived from the
	// request, so sweeps remain reproducible. 0 retries immediately.
	Backoff time.Duration
}

// Runner is a bounded worker pool with a keyed memoization cache.
// The zero value is not usable; construct with New.
type Runner struct {
	workers int
	sem     chan struct{}
	base    context.Context
	policy  Policy

	mu       sync.Mutex
	cache    map[key]*entry
	stats    Stats
	inflight int

	// blobs is the in-process tier of CachedJSON, keyed by artifact kind
	// and fingerprint (see blobcache.go).
	blobs map[string]*blobEntry

	// cacheDir roots the persistent result cache; empty disables it (see
	// SetCacheDir in diskcache.go).
	cacheDir string

	// exec, when non-nil, offers cache-miss executions to an external
	// executor (the distributed sweep fabric) before the local pool (see
	// SetExecutor).
	exec Executor

	// runlog, when non-nil, receives one campaign-ledger record per
	// completed request (see SetRunLog in runlog.go).
	runlog *runlog.Ledger

	// pred, when non-nil, offers disk-miss requests to a learned surrogate
	// before any real execution (see SetPredictor).
	pred Predictor

	obs obs
	bus *progress.Bus
}

// New creates a runner allowing up to workers concurrent simulations.
// workers <= 0 selects GOMAXPROCS; workers == 1 serializes execution
// (requests still dedupe through the cache).
func New(workers int) *Runner {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Runner{
		workers: workers,
		sem:     make(chan struct{}, workers),
		base:    context.Background(),
		cache:   map[key]*entry{},
	}
}

// Workers returns the concurrency bound.
func (r *Runner) Workers() int { return r.workers }

// SetPolicy installs the fault-tolerance policy. Call before submitting
// requests; SetPolicy is not synchronized with Do.
func (r *Runner) SetPolicy(p Policy) { r.policy = p }

// Executor is an external execution backend for cache-miss requests: the
// distributed sweep fabric's coordinator plugs in here. It either executes
// the request somewhere (handled true) or declines (handled false), in which
// case the request falls through to the local pool. Results an executor
// returns must obey the same determinism contract as local execution: the
// Activity of a given request is bit-identical wherever it runs.
type Executor func(ctx context.Context, req Request) (res Result, handled bool)

// SetExecutor installs an external executor. Remote executions bypass the
// local worker semaphore — their concurrency is bounded by the executor's own
// fleet — but keep every other layer: the memo cache still dedups and
// coalesces, the disk cache still persists results, and the campaign ledger
// records them under the "fabric" tier. Call before submitting requests;
// SetExecutor is not synchronized with Do.
func (r *Runner) SetExecutor(e Executor) { r.exec = e }

// Predictor is a learned surrogate for simulation requests: it either serves
// a predicted Result with error-bar metadata (ok true) or declines (ok false)
// — an unsupported request shape, or predicted uncertainty above its
// confidence gate — in which case the request falls through to real
// execution. A predictor must be deterministic and safe for concurrent use.
type Predictor func(req Request) (res Result, ok bool)

// SetPredictor installs a learned surrogate as a cache tier; nil detaches it
// (the default). The tier sits after the exact tiers and before any real
// execution: memo -> disk -> surrogate -> fabric/local pool, so a prediction
// is only consulted for simulations nothing has ever actually run. Predicted
// results are memoized in-process (identical requests predict once) but are
// never written to the persistent disk cache and are ledger-tagged with the
// "surrogate" tier plus their error bars — a prediction must never be
// mistaken for, or retrain on, ground truth. Chaos self-tests stay real.
// Call before submitting requests; SetPredictor is not synchronized with Do.
func (r *Runner) SetPredictor(p Predictor) { r.pred = p }

// SetContext sets the base context Do and RunAll derive executions from,
// threading external cancellation (SIGINT) through every simulation. Call
// before submitting requests; SetContext is not synchronized with Do.
func (r *Runner) SetContext(ctx context.Context) {
	if ctx == nil {
		ctx = context.Background()
	}
	r.base = ctx
}

// Instrument attaches a metrics registry and tracer to the runner. Either
// may be nil (that aspect stays off). Metrics exported:
//
//	runner_cache_hits_total / runner_cache_misses_total /
//	runner_inflight_coalesced_total   cache effectiveness counters
//	runner_queue_wait_seconds         histogram of worker-slot waits
//	runner_run_seconds                histogram of simulation latencies
//	runner_workers_busy               gauge of currently executing sims
//	runner_inflight_peak              gauge of the peak concurrency seen
//	runner_retries_total              re-executions after transient failures
//	runner_panics_recovered_total     panics recovered into Result.Err
//	runner_watchdog_timeouts_total    attempts aborted by the wall-clock watchdog
//	runner_cancels_total              attempts aborted by context cancellation
//	runner_uncached_errors_total      transient results withheld from the cache
//	runner_remote_runs_total          executions served by the installed Executor
//	runner_diskcache_corrupt_total    corrupt cache entries quarantined to .bad
//	runner_diskcache_hits_total / runner_diskcache_misses_total
//	runner_diskcache_read_bytes_total / runner_diskcache_written_bytes_total
//	                                  persistent-cache effectiveness and I/O
//	sampling_intervals_total          intervals phase-classified by sampled runs
//	sampling_simulated_total          instructions actually timed by sampled runs
//	sampling_speedup                  gauge: last sampled run's effective speedup
//	surrogate_predictions_total       requests served by the surrogate Predictor
//	surrogate_fallthrough_total       requests the predictor declined (shape or
//	                                  uncertainty gate) that ran for real
//
// With a tracer attached, every executed (cache-miss) simulation also emits
// a span named sim:<workload>@<config>/smt<N>. Call before submitting
// requests; Instrument is not synchronized with Do.
func (r *Runner) Instrument(reg *telemetry.Registry, tr *telemetry.Tracer) {
	r.obs = obs{
		hits:              reg.Counter("runner_cache_hits_total"),
		misses:            reg.Counter("runner_cache_misses_total"),
		coalesced:         reg.Counter("runner_inflight_coalesced_total"),
		retries:           reg.Counter("runner_retries_total"),
		panics:            reg.Counter("runner_panics_recovered_total"),
		timeouts:          reg.Counter("runner_watchdog_timeouts_total"),
		cancels:           reg.Counter("runner_cancels_total"),
		uncached:          reg.Counter("runner_uncached_errors_total"),
		remote:            reg.Counter("runner_remote_runs_total"),
		diskHits:          reg.Counter("runner_diskcache_hits_total"),
		diskMisses:        reg.Counter("runner_diskcache_misses_total"),
		diskCorrupt:       reg.Counter("runner_diskcache_corrupt_total"),
		diskReadBytes:     reg.Counter("runner_diskcache_read_bytes_total"),
		diskWrittenBytes:  reg.Counter("runner_diskcache_written_bytes_total"),
		queueWait:         reg.Histogram("runner_queue_wait_seconds", telemetry.DurationBuckets()),
		runLatency:        reg.Histogram("runner_run_seconds", telemetry.DurationBuckets()),
		busyWorkers:       reg.Gauge("runner_workers_busy"),
		peakInFlight:      reg.Gauge("runner_inflight_peak"),
		samplingIntervals: reg.Counter("sampling_intervals_total"),
		samplingSimulated: reg.Counter("sampling_simulated_total"),
		samplingSpeedup:   reg.Gauge("sampling_speedup"),
		predicted:         reg.Counter("surrogate_predictions_total"),
		predictDeclined:   reg.Counter("surrogate_fallthrough_total"),
		tracer:            tr,
	}
}

// SetBus attaches a progress bus: every cache hit, execution start/finish,
// retry, and terminal failure is published as a typed event (the feed behind
// the console renderer and the observability server's /events and /status).
// A nil bus — or a bus with no subscriber attached — costs one atomic load
// per would-be event (guarded by BenchmarkPublishNoSubscribers in
// internal/progress). Call before submitting requests; SetBus is not
// synchronized with Do.
func (r *Runner) SetBus(b *progress.Bus) { r.bus = b }

// publish constructs and publishes a simulation event only when a subscriber
// is listening, so the unobserved path never builds labels.
func (r *Runner) publish(kind progress.Kind, req Request, build func(*progress.Event)) {
	if !r.bus.Active() {
		return
	}
	ev := progress.Event{Kind: kind, Sim: spanName(req)}
	if build != nil {
		build(&ev)
	}
	r.bus.Publish(ev)
}

// Stats returns a snapshot of the runner counters. Hits and Misses are
// deterministic for a given request sequence regardless of the worker count
// (misses equals the number of unique keys and hits the remainder);
// QueueWait and PeakInFlight are scheduling-dependent diagnostics.
func (r *Runner) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Do executes one request through the cache and pool under the runner's base
// context (see SetContext).
func (r *Runner) Do(req Request) Result { return r.DoCtx(r.base, req) }

// DoCtx executes one request through the cache and pool. The context bounds
// queue waiting and, combined with the policy watchdog, each execution
// attempt. Successes and deterministic errors are memoized; transient
// failures (panics, timeouts, tagged errors) and cancellations are returned
// but never cached, so the next identical request re-executes.
func (r *Runner) DoCtx(ctx context.Context, req Request) Result {
	if ctx == nil {
		ctx = context.Background()
	}
	k, ok := keyOf(req)
	if !ok {
		// Unkeyable request (nil config/workload): execute uncached; the
		// simulation itself will report the error.
		return r.execute(ctx, req)
	}
	r.mu.Lock()
	if e, hit := r.cache[k]; hit {
		r.stats.Hits++
		r.mu.Unlock()
		r.obs.hits.Inc()
		r.publish(progress.KindCacheHit, req, nil)
		hitStart := time.Now()
		select {
		case <-e.ready:
		default:
			// The identical simulation is still in flight: this request
			// coalesces onto it instead of running its own copy.
			r.obs.coalesced.Inc()
			<-e.ready
		}
		r.logRecord(k, req, e.res, runlog.TierMemo, time.Since(hitStart))
		return e.res.clone()
	}
	e := &entry{ready: make(chan struct{})}
	r.cache[k] = e
	r.stats.Misses++
	r.mu.Unlock()
	r.obs.misses.Inc()

	// Persistent layer: a memo miss may still be a disk hit from an earlier
	// process. Served before taking a worker slot — a disk read should never
	// queue behind running simulations.
	if r.diskUsable(req) {
		diskStart := time.Now()
		if res, ok := r.diskLoad(k, req); ok {
			e.res = res
			r.publish(progress.KindCacheHit, req, nil)
			r.logRecord(k, req, e.res, runlog.TierDisk, time.Since(diskStart))
			close(e.ready)
			return e.res.clone()
		}
	}

	// Learned surrogate tier: a request no exact tier has a real result for
	// may be served by prediction when the installed predictor is confident
	// enough. Predictions stay in the memo cache (identical requests predict
	// once) but are never persisted to disk — the exact tiers must keep
	// winning for anything that has actually run. A decline falls through to
	// real execution, which is precisely the active-learning signal: the
	// points the model is unsure about are the ones worth simulating.
	if r.pred != nil && req.Chaos == nil {
		predStart := time.Now()
		if res, ok := r.pred(req); ok {
			e.res = res
			r.mu.Lock()
			r.stats.Predicted++
			r.mu.Unlock()
			r.obs.predicted.Inc()
			r.publish(progress.KindCacheHit, req, nil)
			r.logRecord(k, req, e.res, runlog.TierSurrogate, time.Since(predStart))
			close(e.ready)
			return e.res.clone()
		}
		r.mu.Lock()
		r.stats.PredictDeclined++
		r.mu.Unlock()
		r.obs.predictDeclined.Inc()
	}

	// External executor (the distributed sweep fabric): a cache-miss request
	// is offered to the fleet before the local pool. Remote executions do not
	// hold a local worker slot — their concurrency is the fleet's — but they
	// share the entry lifecycle, so coalesced waiters and the disk cache see
	// remote results exactly like local ones. Chaos self-tests stay local:
	// their mutable failure budgets must not cross process boundaries.
	if r.exec != nil && req.Chaos == nil {
		if res, handled := r.remoteExecute(ctx, req, e, k); handled {
			return res
		}
	}

	enqueued := time.Now()
	select {
	case r.sem <- struct{}{}:
	case <-ctx.Done():
		// Canceled while queued: surface the cancellation and withdraw the
		// cache entry so a later request re-executes.
		e.res = Result{Err: fmt.Errorf("canceled before start: %w", ctx.Err())}
		r.uncache(k, e)
		close(e.ready)
		return e.res.clone()
	}
	wait := time.Since(enqueued)
	r.mu.Lock()
	r.stats.QueueWait += wait
	r.inflight++
	inflight := r.inflight
	if inflight > r.stats.PeakInFlight {
		r.stats.PeakInFlight = inflight
	}
	r.mu.Unlock()
	r.obs.queueWait.Observe(wait.Seconds())
	r.obs.busyWorkers.Set(float64(inflight))
	r.obs.peakInFlight.SetMax(float64(inflight))

	var sp telemetry.Span
	if r.obs.tracer != nil {
		sp = r.obs.tracer.Begin(spanName(req), "runner")
	}
	r.publish(progress.KindSimStarted, req, nil)
	req.series = r.seriesFor(req)
	start := time.Now()
	e.res = r.execute(ctx, req)
	elapsed := time.Since(start)
	r.obs.runLatency.Observe(elapsed.Seconds())
	sp.End()
	if e.res.Err != nil {
		r.publish(progress.KindSimFailed, req, func(ev *progress.Event) {
			ev.Err = e.res.Err.Error()
			ev.Elapsed = elapsed.Seconds()
			ev.Attempt = e.res.Attempts
		})
	} else {
		r.publish(progress.KindSimFinished, req, func(ev *progress.Event) {
			ev.Elapsed = elapsed.Seconds()
			ev.Attempt = e.res.Attempts
			// The live IPC/power readings drive the dashboard sparklines.
			if e.res.Activity != nil {
				ev.IPC = e.res.Activity.IPC()
			}
			if e.res.Report != nil {
				ev.Power = e.res.Report.Total
			}
		})
		r.logSeries(k, req, req.series)
	}
	r.logRecord(k, req, e.res, runlog.TierRun, elapsed)

	if !cacheable(e.res.Err) {
		// Cache-poisoning guard: a transient failure (or cancellation) is a
		// property of this attempt, not of the request — memoizing it would
		// replay the failure to every later identical request.
		r.uncache(k, e)
	} else if r.diskUsable(req) {
		// Persist successful results only: a deterministic error is memoized
		// for this process but re-verified by the next one.
		r.diskStore(k, req, e.res)
	}
	r.mu.Lock()
	r.inflight--
	inflight = r.inflight
	r.mu.Unlock()
	r.obs.busyWorkers.Set(float64(inflight))
	<-r.sem
	close(e.ready)
	return e.res.clone()
}

// remoteExecute runs one cache-miss request through the installed executor.
// handled is false when the executor declined (chaos self-tests, unkeyable
// shapes), leaving the request to the local pool. On handled results it
// performs the same bookkeeping as local execution: progress events, ledger
// record (under the fabric tier), cache-poisoning guard, and disk persist.
func (r *Runner) remoteExecute(ctx context.Context, req Request, e *entry, k key) (Result, bool) {
	var sp telemetry.Span
	if r.obs.tracer != nil {
		sp = r.obs.tracer.Begin(spanName(req), "fabric")
	}
	r.publish(progress.KindSimStarted, req, nil)
	start := time.Now()
	res, handled := r.exec(ctx, req)
	elapsed := time.Since(start)
	sp.End()
	if !handled {
		return Result{}, false
	}
	e.res = res
	r.mu.Lock()
	r.stats.Remote++
	r.mu.Unlock()
	r.obs.remote.Inc()
	r.obs.runLatency.Observe(elapsed.Seconds())
	if e.res.Err != nil {
		r.publish(progress.KindSimFailed, req, func(ev *progress.Event) {
			ev.Err = e.res.Err.Error()
			ev.Elapsed = elapsed.Seconds()
			ev.Attempt = e.res.Attempts
		})
	} else {
		r.publish(progress.KindSimFinished, req, func(ev *progress.Event) {
			ev.Elapsed = elapsed.Seconds()
			ev.Attempt = e.res.Attempts
			if e.res.Activity != nil {
				ev.IPC = e.res.Activity.IPC()
			}
			if e.res.Report != nil {
				ev.Power = e.res.Report.Total
			}
		})
	}
	r.logRecord(k, req, e.res, runlog.TierFabric, elapsed)
	if !cacheable(e.res.Err) {
		r.uncache(k, e)
	} else if r.diskUsable(req) {
		// A fleet-computed result is as durable as a local one: persisting it
		// lets the next coordinator process skip the dispatch entirely.
		r.diskStore(k, req, e.res)
	}
	close(e.ready)
	return e.res.clone(), true
}

// uncache withdraws a failed entry from the cache (the entry's ready channel
// still closes, so coalesced waiters observe the failed result once).
func (r *Runner) uncache(k key, e *entry) {
	r.mu.Lock()
	if r.cache[k] == e {
		delete(r.cache, k)
		r.stats.Uncached++
	}
	r.mu.Unlock()
	r.obs.uncached.Inc()
}

// execute runs a request with panic recovery, the per-attempt watchdog, and
// bounded retry for transient failures.
func (r *Runner) execute(ctx context.Context, req Request) Result {
	maxAttempts := r.policy.MaxAttempts
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	var res Result
	for attempt := 1; ; attempt++ {
		res = r.attempt(ctx, req)
		res.Attempts = attempt
		if res.Err == nil || !IsTransient(res.Err) ||
			attempt >= maxAttempts || ctx.Err() != nil {
			return res
		}
		r.obs.retries.Inc()
		r.mu.Lock()
		r.stats.Retries++
		r.mu.Unlock()
		next := attempt + 1
		r.publish(progress.KindSimRetried, req, func(ev *progress.Event) {
			ev.Attempt = next
			ev.Err = res.Err.Error()
		})
		if d := retryDelay(r.policy.Backoff, attempt, req); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return res
			}
		}
	}
}

// attempt is one guarded execution: panics become a transient *PanicError,
// and the policy watchdog bounds wall-clock time via a context deadline the
// simulation polls cooperatively.
func (r *Runner) attempt(ctx context.Context, req Request) (res Result) {
	actx := ctx
	if r.policy.Timeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, r.policy.Timeout)
		defer cancel()
	}
	defer func() {
		if p := recover(); p != nil {
			r.obs.panics.Inc()
			r.mu.Lock()
			r.stats.Panics++
			r.mu.Unlock()
			res = Result{Err: &PanicError{Value: p, Stack: debug.Stack()}}
		}
	}()
	// A retried attempt re-records its time series from scratch: frames
	// from the failed attempt would otherwise pollute the track.
	req.series.Reset()
	res = req.runCtx(actx)
	if res.Sampling != nil {
		r.obs.samplingIntervals.Add(uint64(res.Sampling.Intervals))
		r.obs.samplingSimulated.Add(res.Sampling.SimulatedInsts)
		r.obs.samplingSpeedup.Set(res.Sampling.Speedup())
	}
	if res.Err != nil {
		switch {
		case errors.Is(res.Err, context.DeadlineExceeded):
			r.obs.timeouts.Inc()
			r.mu.Lock()
			r.stats.Timeouts++
			r.mu.Unlock()
		case errors.Is(res.Err, context.Canceled):
			r.obs.cancels.Inc()
			r.mu.Lock()
			r.stats.Cancels++
			r.mu.Unlock()
		}
	}
	return res
}

// retryDelay computes the backoff before retry #attempt: exponential in the
// attempt number, capped at 16x base, with deterministic jitter in
// [d/2, d) derived from the request identity — reproducible sweeps, no
// thundering herd.
func retryDelay(base time.Duration, attempt int, req Request) time.Duration {
	if base <= 0 {
		return 0
	}
	d := base << (attempt - 1)
	if d > 16*base {
		d = 16 * base
	}
	h := fnv.New64a()
	if req.W != nil {
		h.Write([]byte(req.W.Name))
	}
	if req.Cfg != nil {
		h.Write([]byte(req.Cfg.Name))
	}
	h.Write([]byte{byte(attempt), byte(req.SMT)})
	frac := float64(h.Sum64()%1024) / 1024
	half := d / 2
	return half + time.Duration(float64(half)*frac)
}

// spanName labels an executed simulation's trace span and progress events.
// Nil config/workload (unkeyable requests) render as "?" instead of
// panicking, since the progress path also labels uncacheable executions.
func spanName(req Request) string {
	smt := req.SMT
	if smt < 1 {
		smt = 1
	}
	w, c := "?", "?"
	if req.W != nil {
		w = req.W.Name
	}
	if req.Cfg != nil {
		c = req.Cfg.Name
	}
	return "sim:" + w + "@" + c + "/smt" + strconv.Itoa(smt)
}

// RunAll fans the requests out across the pool and returns their results in
// request order. Identical requests — within the batch or across batches —
// are simulated once.
func (r *Runner) RunAll(reqs []Request) []Result { return r.RunAllCtx(r.base, reqs) }

// RunAllCtx is RunAll under an explicit context: cancellation aborts queued
// and in-flight simulations cooperatively and the remaining results carry
// cancellation errors.
func (r *Runner) RunAllCtx(ctx context.Context, reqs []Request) []Result {
	out := make([]Result, len(reqs))
	if len(reqs) == 0 {
		return out
	}
	if r.workers == 1 {
		// Serial fast path: no goroutines, identical observable behavior.
		for i := range reqs {
			out[i] = r.DoCtx(ctx, reqs[i])
		}
		return out
	}
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = r.DoCtx(ctx, reqs[i])
		}(i)
	}
	wg.Wait()
	return out
}

// ForEach runs fn(i) for every i in [0, n) across at most workers
// goroutines. It is the generic fan-out primitive for loops whose bodies are
// not core simulations (the socket Monte Carlo, the APEX figure sweep).
// workers <= 0 selects GOMAXPROCS. fn must be safe to call concurrently and
// must write only to its own index's state.
func ForEach(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
