// Package surrogate is the learned cycle/power prediction layer: it turns the
// campaign ledger (internal/runlog) into training data for per-target ridge
// models (internal/mlfit) and serves predictions with error bars as the
// fastest — and only approximate — tier of the runner's cache hierarchy
// (memo -> disk -> surrogate -> fabric/execution). The NeuroScalar
// observation transplanted onto this codebase: a learned model stands in for
// cycle-level simulation at orders-of-magnitude lower cost, and an
// uncertainty gate decides per request whether the stand-in is good enough.
//
// Targets are fit in log space (CPI and the power components are positive
// and multiplicative: doubling memory latency scales CPI, it does not shift
// it), which also makes each prediction's standard error directly a relative
// error — what the runner's confidence gate thresholds on.
//
// Determinism contract: training is a pure function of the corpus (sorted
// vocabulary, fixed feature layout, deterministic solver), models persist as
// JSON (which round-trips float64 exactly, so a reloaded model predicts
// bit-identically), and prediction is pure. Everything downstream — the
// p10explore tables, the ledger records of predicted runs — inherits
// byte-stability from this.
package surrogate

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"

	"power10sim/internal/mlfit"
	"power10sim/internal/uarch"
)

// ModelSchema is the persisted model's schema generation: loaders reject
// other generations rather than misreading them. v2 moved the
// activity-driven power targets to energy-per-instruction fit space.
const ModelSchema = "p10surrogate-v2"

// Target names, in the fixed order Model.Targets uses.
var TargetNames = []string{
	"cpi", "power", "power_clock", "power_switching", "power_array", "power_leakage",
}

// epiSpace marks targets fit as energy per instruction (value x CPI) instead
// of per-cycle power. The power model charges per-event energies, so a
// per-cycle component is (events/inst) x E(config) / CPI — predicting it
// directly forces the fit to re-learn CPI inside every power target. In EPI
// space the CPI factor cancels and the target is pure workload-activity x
// config-energy; Predict divides by the predicted CPI to convert back.
// Clock and leakage charge per cycle (latch count x utilization, device
// area), and total power is clock-dominated, so those stay per-cycle —
// measured fit quality picks the space, not symmetry.
var epiSpace = [numTargets]bool{
	tSwitching: true,
	tArray:     true,
}

// Indices into Model.Targets / Prediction fields.
const (
	tCPI = iota
	tPower
	tClock
	tSwitching
	tArray
	tLeakage
	numTargets
)

// WorkloadModel is one workload's residual correction on top of the global
// fit: a ridge model over the per-workload sub-row when the workload has
// enough training rows, otherwise just an intercept shift. LOORMSE is the
// workload's own cross-validated error — the number the confidence gate
// prices this workload's predictions with, so a workload the model handles
// badly gets declined (and simulated for real) instead of served wrong.
type WorkloadModel struct {
	Rows int `json:"rows"`
	// Shift is the log-space intercept correction applied when Model is nil.
	Shift   float64           `json:"shift"`
	LOORMSE float64           `json:"loo_rmse"`
	Model   *mlfit.RidgeModel `json:"model,omitempty"`
	// Cal is this workload's conformal std multiplier (>= 1) when the
	// calibration pass saw enough of its fold-out rows; 0 means unset and
	// the model-level scale applies. Miscalibration is a per-workload
	// phenomenon — a workload whose residual fit extrapolates badly needs a
	// wide multiplier, and a global scale would tax the well-modeled
	// workloads for it.
	Cal float64 `json:"cal,omitempty"`
}

// TargetModel is one fitted response in log space: a global ridge model over
// the shared feature row plus per-workload residual corrections. The split is
// hierarchical on purpose — the corpus holds few configs per workload but
// many workloads, so the global fit pools cross-workload structure while the
// per-workload layer captures the sensitivity a shared-coefficient linear
// model cannot (which workload's CPI collapses when the L2 grows, and at
// which SMT level).
type TargetModel struct {
	Name string `json:"name"`
	// LOORMSE is the row-weighted pooled per-workload leave-one-out RMSE in
	// log space — the cross-validated relative error estimate reported by
	// p10explore.
	LOORMSE     float64                   `json:"loo_rmse"`
	Model       *mlfit.RidgeModel         `json:"model"`
	PerWorkload map[string]*WorkloadModel `json:"per_workload,omitempty"`
}

// WlBox is one workload's training envelope in the sub-feature space: the
// per-column min and max over its training sub-rows. Predictions outside the
// box are extrapolations the fitted leverage cannot price (greedy selection
// sees only its chosen columns), so Predict inflates their uncertainty by the
// normalized excess instead of trusting the in-subspace error bar.
type WlBox struct {
	Lo []float64 `json:"lo"`
	Hi []float64 `json:"hi"`
}

// Model is a trained surrogate: the workload vocabulary (which fixes the
// feature layout), one ridge model per target, the per-workload training
// envelopes, and training provenance.
type Model struct {
	Schema    string            `json:"schema"`
	Workloads []string          `json:"workloads"`
	TrainRows int               `json:"train_rows"`
	Features  int               `json:"features"`
	Targets   []TargetModel     `json:"targets"`
	WlBoxes   map[string]*WlBox `json:"wl_boxes,omitempty"`
	// Calibration is the per-target std scale from the internal k-fold
	// conformal pass (>= 1): forward selection picks the features that
	// minimize LOO error, so the fitted error bars are biased tight; the
	// calibration pass measures actual out-of-fold residuals against claimed
	// stds and widens every prediction by the observed ratio.
	Calibration []float64 `json:"calibration,omitempty"`

	fz *Featurizer // rebuilt on load/train; not serialized
}

// TrainOptions configures Train.
type TrainOptions struct {
	// MaxFeatures bounds the global model's forward selection per target
	// (default 16; also capped by corpus size inside mlfit).
	MaxFeatures int
	// MaxWlFeatures bounds each per-workload residual fit (default 8; mlfit
	// additionally caps at a third of that workload's rows).
	MaxWlFeatures int
	// Lambdas is the ridge grid (default mlfit.DefaultLambdas).
	Lambdas []float64

	// noCalibration skips the conformal pass; set internally for the
	// fold-out models the pass itself trains.
	noCalibration bool
}

func (o TrainOptions) withDefaults() TrainOptions {
	if o.MaxFeatures <= 0 {
		o.MaxFeatures = 16
	}
	if o.MaxWlFeatures <= 0 {
		o.MaxWlFeatures = 8
	}
	return o
}

// minWlRows is the row count below which a workload gets only an intercept
// correction instead of its own residual ridge fit.
const minWlRows = 8

// Train fits the surrogate on a corpus, per target in log space: a
// forward-selected LOO-cross-validated global ridge over the shared feature
// matrix, then a per-workload residual model (ridge over the config x SMT
// sub-row for well-covered workloads, an intercept shift otherwise).
func Train(c *Corpus, opt TrainOptions) (*Model, error) {
	opt = opt.withDefaults()
	if len(c.Rows) < 8 {
		return nil, fmt.Errorf("surrogate: %d usable rows, need at least 8", len(c.Rows))
	}
	fz := NewFeaturizer(c.Vocab)
	X := make([][]float64, len(c.Rows))
	for i, r := range c.Rows {
		X[i] = fz.Row(nil, r.Cfg, r.Workload, r.Profile, r.SMT, r.Budget, r.Warmup)
	}
	m := &Model{
		Schema:    ModelSchema,
		Workloads: append([]string(nil), c.Vocab...),
		TrainRows: len(c.Rows),
		Features:  fz.NumFeatures(),
		fz:        fz,
	}
	byWl := make(map[string][]int, len(c.Vocab))
	for i, r := range c.Rows {
		byWl[r.Workload] = append(byWl[r.Workload], i)
	}
	subByWl := make(map[string][][]float64, len(c.Vocab))
	m.WlBoxes = make(map[string]*WlBox, len(c.Vocab))
	for _, w := range c.Vocab {
		rows := byWl[w]
		if len(rows) == 0 {
			continue
		}
		subs := make([][]float64, len(rows))
		for j, i := range rows {
			subs[j] = fz.SubRow(nil, X[i], c.Rows[i].SMT)
		}
		subByWl[w] = subs
		m.WlBoxes[w] = boxOf(subs)
	}
	// Targets are independent fits over shared read-only inputs, so they run
	// concurrently; each goroutine writes only its own slot and the result is
	// identical to the sequential loop.
	m.Targets = make([]TargetModel, numTargets)
	errs := make([]error, numTargets)
	var wg sync.WaitGroup
	for t := 0; t < numTargets; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			y := make([]float64, len(c.Rows))
			for i, r := range c.Rows {
				y[i] = fitTarget(&r, t)
			}
			rm, err := mlfit.ForwardSelectRidgeCV(X, y, fz.Names(), opt.MaxFeatures, opt.Lambdas)
			if err != nil {
				errs[t] = fmt.Errorf("surrogate: fit %s: %w", TargetNames[t], err)
				return
			}
			tm := TargetModel{Name: TargetNames[t], Model: rm, PerWorkload: map[string]*WorkloadModel{}}
			var pooledSq, pooledN float64
			for _, w := range c.Vocab { // vocab order: deterministic training
				rows := byWl[w]
				if len(rows) == 0 {
					continue
				}
				wm := fitWorkload(X, y, rm, rows, subByWl[w], fz.SubNames(), opt)
				tm.PerWorkload[w] = wm
				pooledSq += wm.LOORMSE * wm.LOORMSE * float64(wm.Rows)
				pooledN += float64(wm.Rows)
			}
			tm.LOORMSE = math.Sqrt(pooledSq / pooledN)
			m.Targets[t] = tm
		}(t)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if !opt.noCalibration && len(c.Rows) >= minCalRows {
		calibrate(c, opt, m)
	}
	return m, nil
}

// Conformal calibration constants: the corpus size below which the pass is
// skipped (fold-out models would be too starved to be representative), the
// fold count, the hash seed that assigns rows to folds, and the fold-out
// sample count below which a workload keeps the model-level scale instead of
// earning its own.
const (
	minCalRows   = 32
	calFolds     = 4
	calSeed      = 0xCA11B8
	minWlCalRows = 12
)

// calibrate measures how much the trained pipeline's claimed stds understate
// real out-of-sample error: rows are hashed into folds, a fold-out model is
// trained without each fold, and every held-out row contributes a normalized
// residual z = (actual - predicted)/claimed_std per target. A calibrated
// model has mean |z| ~ sqrt(2/pi) (the half-normal mean); forward
// selection's optimism shows up as a larger mean, and that ratio becomes the
// std multiplier (floored at 1 — the pass only ever widens error bars). The
// mean-|z| statistic matches what the confidence gate protects — served mean
// absolute error — where an RMS would let a single wild row veto every
// serviceable one.
//
// Scales are per workload where the folds saw enough of one (WorkloadModel.
// Cal), with a model-level fallback (Model.Calibration): miscalibration
// tracks workloads — a residual fit that extrapolates badly on one workload
// should not tax the well-modeled ones.
func calibrate(c *Corpus, opt TrainOptions, m *Model) {
	opt.noCalibration = true
	type wlAcc struct{ zabs, zn [numTargets]float64 }
	// Folds are independent train-and-score passes; run them concurrently
	// and merge their accumulators in fold order so the float sums (and the
	// model) stay deterministic.
	folds := make([]map[string]*wlAcc, calFolds)
	var wg sync.WaitGroup
	for f := 0; f < calFolds; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			sub := &Corpus{}
			var held []int
			wl := map[string]bool{}
			for i := range c.Rows {
				if splitHash(c.Rows[i].Key, calSeed)%calFolds == uint64(f) {
					held = append(held, i)
					continue
				}
				sub.Rows = append(sub.Rows, c.Rows[i])
				wl[c.Rows[i].Workload] = true
			}
			for _, w := range c.Vocab { // preserve sorted vocab order
				if wl[w] {
					sub.Vocab = append(sub.Vocab, w)
				}
			}
			fm, err := Train(sub, opt)
			if err != nil {
				return
			}
			acc := map[string]*wlAcc{}
			folds[f] = acc
			var buf PredictBuf
			var logv, std [numTargets]float64
			for _, i := range held {
				r := &c.Rows[i]
				if !fm.Featurizer().Knows(r.Workload) {
					continue
				}
				fm.predictLog(&buf, r.Cfg, r.Workload, r.Profile, r.SMT, r.Budget, r.Warmup, &logv, &std)
				a := acc[r.Workload]
				if a == nil {
					a = &wlAcc{}
					acc[r.Workload] = a
				}
				for t := 0; t < numTargets; t++ {
					if std[t] <= 0 {
						continue
					}
					z := math.Abs(logTarget(targetValue(r, t))-logv[t]) / std[t]
					a.zabs[t] += z
					a.zn[t]++
				}
			}
		}(f)
	}
	wg.Wait()
	var zabs, zn [numTargets]float64 // model-level pool, every scored row
	byWl := map[string]*wlAcc{}
	for _, acc := range folds {
		for _, w := range c.Vocab { // vocab order: deterministic merge
			a := acc[w]
			if a == nil {
				continue
			}
			p := byWl[w]
			if p == nil {
				p = &wlAcc{}
				byWl[w] = p
			}
			for t := 0; t < numTargets; t++ {
				p.zabs[t] += a.zabs[t]
				p.zn[t] += a.zn[t]
				zabs[t] += a.zabs[t]
				zn[t] += a.zn[t]
			}
		}
	}
	halfNormalMean := math.Sqrt(2 / math.Pi)
	scaleOf := func(sum, n float64) float64 {
		if n > 0 {
			if s := sum / n / halfNormalMean; s > 1 {
				return s
			}
		}
		return 1
	}
	m.Calibration = make([]float64, numTargets)
	for t := range m.Calibration {
		m.Calibration[t] = scaleOf(zabs[t], zn[t])
	}
	for t := range m.Targets {
		for w, wm := range m.Targets[t].PerWorkload {
			if acc := byWl[w]; acc != nil && acc.zn[t] >= minWlCalRows {
				wm.Cal = scaleOf(acc.zabs[t], acc.zn[t])
			}
		}
	}
}

// boxOf computes the per-column envelope of a set of sub-rows.
func boxOf(subs [][]float64) *WlBox {
	b := &WlBox{
		Lo: append([]float64(nil), subs[0]...),
		Hi: append([]float64(nil), subs[0]...),
	}
	for _, s := range subs[1:] {
		for j, v := range s {
			if v < b.Lo[j] {
				b.Lo[j] = v
			}
			if v > b.Hi[j] {
				b.Hi[j] = v
			}
		}
	}
	return b
}

// novelty measures how far a sub-row leaves the training envelope: the sum
// over columns of the excess beyond [lo,hi], normalized by the column's
// trained span (floored so near-constant columns still register), each
// column's contribution capped so one wild feature cannot hide another.
// Zero inside the box; Predict scales uncertainty by 1+novelty.
func (b *WlBox) novelty(sub []float64) float64 {
	var nov float64
	for j, v := range sub {
		lo, hi := b.Lo[j], b.Hi[j]
		var d float64
		switch {
		case v < lo:
			d = lo - v
		case v > hi:
			d = v - hi
		default:
			continue
		}
		denom := hi - lo
		if m := math.Max(math.Abs(lo), math.Abs(hi)); denom < 0.05*m {
			denom = 0.05 * m
		}
		if denom < 1e-9 {
			denom = 1e-9
		}
		d /= denom
		if d > 10 {
			d = 10
		}
		nov += d
	}
	return nov
}

// fitWorkload builds one workload's residual correction against the global
// model: a ridge over the sub-row when the workload has enough rows and the
// fit's LOO error beats the intercept-only correction, else the intercept.
func fitWorkload(X [][]float64, y []float64, global *mlfit.RidgeModel, rows []int, sub [][]float64, subNames []string, opt TrainOptions) *WorkloadModel {
	n := len(rows)
	resid := make([]float64, n)
	var mean float64
	for j, i := range rows {
		resid[j] = y[i] - global.Predict(X[i])
		mean += resid[j]
	}
	mean /= float64(n)
	wm := &WorkloadModel{Rows: n, Shift: mean, LOORMSE: global.LOORMSE}
	if n >= 2 {
		// Intercept-only leave-one-out: dropping row i moves the mean by
		// (mean - r_i)/(n-1), so the LOO residual is the centered residual
		// scaled by n/(n-1).
		var sq float64
		for _, r := range resid {
			e := (r - mean) * float64(n) / float64(n-1)
			sq += e * e
		}
		wm.LOORMSE = math.Sqrt(sq / float64(n))
	}
	if n < minWlRows {
		return wm
	}
	rm, err := mlfit.ForwardSelectRidgeCV(sub, resid, subNames, opt.MaxWlFeatures, opt.Lambdas)
	if err != nil || rm.LOORMSE >= wm.LOORMSE {
		return wm // the richer fit did not beat the intercept: keep honesty
	}
	wm.Shift = 0
	wm.LOORMSE = rm.LOORMSE
	wm.Model = rm
	return wm
}

// targetValue extracts target t from a row in natural space.
func targetValue(r *Row, t int) float64 {
	switch t {
	case tCPI:
		return r.CPI
	case tPower:
		return r.Power
	case tClock:
		return r.PowerClock
	case tSwitching:
		return r.PowerSwitching
	case tArray:
		return r.PowerArray
	default:
		return r.PowerLeakage
	}
}

// logTarget maps a natural-space target to fit space, flooring at a tiny
// positive value so a zero component (a config with no array power, say)
// stays finite instead of poisoning the fit with -Inf.
func logTarget(v float64) float64 {
	if v < 1e-12 {
		v = 1e-12
	}
	return math.Log(v)
}

// fitTarget maps a row's target t to its fit-space log value: per-cycle for
// CPI, clock, and leakage; energy per instruction for the activity-driven
// power targets.
func fitTarget(r *Row, t int) float64 {
	v := targetValue(r, t)
	if epiSpace[t] {
		v *= r.CPI
	}
	return logTarget(v)
}

// Featurizer returns the model's featurizer (rebuilt from the stored
// vocabulary if needed).
func (m *Model) Featurizer() *Featurizer {
	if m.fz == nil {
		m.fz = NewFeaturizer(m.Workloads)
	}
	return m.fz
}

// Valid checks a (possibly just deserialized) model's structure.
func (m *Model) Valid() error {
	if m.Schema != ModelSchema {
		return fmt.Errorf("surrogate: model schema %q, want %q", m.Schema, ModelSchema)
	}
	if len(m.Targets) != numTargets {
		return fmt.Errorf("surrogate: model has %d targets, want %d", len(m.Targets), numTargets)
	}
	if m.Calibration != nil {
		if len(m.Calibration) != numTargets {
			return fmt.Errorf("surrogate: calibration has %d scales, want %d", len(m.Calibration), numTargets)
		}
		for i, s := range m.Calibration {
			if !(s >= 1) || math.IsInf(s, 0) {
				return fmt.Errorf("surrogate: calibration scale %d is %v, want finite >= 1", i, s)
			}
		}
	}
	width := m.Featurizer().NumFeatures()
	subWidth := m.Featurizer().SubWidth()
	// Predict reads any workload's envelope, corrected or not.
	for w, b := range m.WlBoxes {
		if b == nil || len(b.Lo) != subWidth || len(b.Hi) != subWidth {
			return fmt.Errorf("surrogate: workload %q has no %d-wide training envelope", w, subWidth)
		}
	}
	for i, t := range m.Targets {
		if t.Name != TargetNames[i] {
			return fmt.Errorf("surrogate: target %d is %q, want %q", i, t.Name, TargetNames[i])
		}
		if t.Model == nil {
			return fmt.Errorf("surrogate: target %q has no model", t.Name)
		}
		if err := t.Model.Valid(); err != nil {
			return fmt.Errorf("surrogate: target %q: %w", t.Name, err)
		}
		for _, f := range t.Model.Features {
			if f < 0 || f >= width {
				return fmt.Errorf("surrogate: target %q uses feature %d outside row width %d", t.Name, f, width)
			}
		}
		for w, wm := range t.PerWorkload {
			if !m.Featurizer().Knows(w) {
				return fmt.Errorf("surrogate: target %q corrects workload %q outside the vocabulary", t.Name, w)
			}
			if m.WlBoxes[w] == nil {
				return fmt.Errorf("surrogate: workload %q has no %d-wide training envelope", w, subWidth)
			}
			if wm == nil || wm.Rows < 1 {
				return fmt.Errorf("surrogate: target %q workload %q correction is empty", t.Name, w)
			}
			if wm.Cal != 0 && (!(wm.Cal >= 1) || math.IsInf(wm.Cal, 0)) {
				return fmt.Errorf("surrogate: target %q workload %q calibration %v, want finite >= 1", t.Name, w, wm.Cal)
			}
			if wm.Model == nil {
				continue
			}
			if err := wm.Model.Valid(); err != nil {
				return fmt.Errorf("surrogate: target %q workload %q: %w", t.Name, w, err)
			}
			for _, f := range wm.Model.Features {
				if f < 0 || f >= subWidth {
					return fmt.Errorf("surrogate: target %q workload %q uses feature %d outside sub-row width %d", t.Name, w, f, subWidth)
				}
			}
		}
	}
	return nil
}

// Prediction is one point's predicted metrics with uncertainty. The Std
// fields are log-space standard errors — relative errors, to first order.
type Prediction struct {
	CPI      float64
	CPIStd   float64
	Power    float64
	PowerStd float64
	// Power components (natural space).
	Clock, Switching, Array, Leakage float64
	// EPI is Power*CPI: energy per instruction in model units. EPIStd
	// combines the CPI and power errors (independence approximation).
	EPI    float64
	EPIStd float64
	// RelStd is the confidence gate's scalar: the larger of the CPI and
	// power relative errors.
	RelStd float64
}

// PredictBuf holds the scratch space a prediction needs so the steady-state
// path allocates nothing. Not safe for concurrent use; give each goroutine
// its own.
type PredictBuf struct {
	row     []float64
	sub     []float64
	scratch []float64
}

// Predict renders the feature row for one hypothetical point and evaluates
// every target: the global model plus the workload's residual correction.
// profile must be the workload's sampling.Profile vector.
func (m *Model) Predict(buf *PredictBuf, cfg *uarch.Config, workload string, profile []float64, smt int, budget, warmup uint64) Prediction {
	if buf == nil {
		buf = &PredictBuf{}
	}
	var logv, std [numTargets]float64
	m.predictLog(buf, cfg, workload, profile, smt, budget, warmup, &logv, &std)
	p := Prediction{
		CPI:       math.Exp(logv[tCPI]),
		CPIStd:    std[tCPI],
		Power:     math.Exp(logv[tPower]),
		PowerStd:  std[tPower],
		Clock:     math.Exp(logv[tClock]),
		Switching: math.Exp(logv[tSwitching]),
		Array:     math.Exp(logv[tArray]),
		Leakage:   math.Exp(logv[tLeakage]),
	}
	p.EPI = p.Power * p.CPI
	p.EPIStd = math.Sqrt(std[tCPI]*std[tCPI] + std[tPower]*std[tPower])
	p.RelStd = p.CPIStd
	if p.PowerStd > p.RelStd {
		p.RelStd = p.PowerStd
	}
	return p
}

// predictLog evaluates every target in log space — the global model plus the
// workload's residual correction, envelope inflation, and conformal
// calibration — filling logv and std. The shared core of Predict and the
// calibration pass.
func (m *Model) predictLog(buf *PredictBuf, cfg *uarch.Config, workload string, profile []float64, smt int, budget, warmup uint64, logv, std *[numTargets]float64) {
	fz := m.Featurizer()
	buf.row = fz.Row(buf.row, cfg, workload, profile, smt, budget, warmup)
	buf.sub = fz.SubRow(buf.sub, buf.row, smt)
	// Extrapolation pricing: leaving the workload's training envelope widens
	// every error bar, because the fitted leverage only sees selected columns.
	inflate := 1.0
	if b := m.WlBoxes[workload]; b != nil && len(b.Lo) == len(buf.sub) {
		inflate += b.novelty(buf.sub)
	}
	need := 0
	for _, t := range m.Targets {
		if n := t.Model.ScratchLen(); n > need {
			need = n
		}
		if wm := t.PerWorkload[workload]; wm != nil && wm.Model != nil {
			if n := wm.Model.ScratchLen(); n > need {
				need = n
			}
		}
	}
	if cap(buf.scratch) < need {
		buf.scratch = make([]float64, need)
	}
	for i, t := range m.Targets {
		g, gstd := t.Model.PredictStd(buf.row, buf.scratch[:t.Model.ScratchLen()])
		wm := t.PerWorkload[workload]
		switch {
		case wm == nil:
			// Workload outside the vocabulary: the global fit is all there is,
			// priced with its own (wide) uncertainty.
			logv[i], std[i] = g, gstd
		case wm.Model != nil:
			d, dstd := wm.Model.PredictStd(buf.sub, buf.scratch[:wm.Model.ScratchLen()])
			logv[i], std[i] = g+d, dstd*inflate
		default:
			// Intercept-only correction: the workload's cross-validated error,
			// inflated by the global model's leverage so far-from-training
			// points still read as uncertain.
			lev := 0.0
			if t.Model.Sigma2 > 0 {
				if h := gstd*gstd/t.Model.Sigma2 - 1; h > 0 {
					lev = h
				}
			}
			logv[i] = g + wm.Shift
			std[i] = wm.LOORMSE * math.Sqrt(1+lev) * inflate
		}
	}
	// Convert EPI-space targets back to per-cycle: divide by the predicted
	// CPI (subtract in log space), combining the two fits' uncertainties.
	// CPI itself is index 0, so logv[tCPI] is final here.
	for i := range logv {
		if epiSpace[i] {
			logv[i] -= logv[tCPI]
			std[i] = math.Hypot(std[i], std[tCPI])
		}
	}
	for i := range std {
		if wm := m.Targets[i].PerWorkload[workload]; wm != nil && wm.Cal > 0 {
			std[i] *= wm.Cal
		} else if i < len(m.Calibration) {
			std[i] *= m.Calibration[i]
		}
	}
}

// Save atomically persists the model as JSON: write to a temp file in the
// destination directory, fsync, rename. A reader never observes a torn model.
func (m *Model) Save(path string) error {
	if err := m.Valid(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		return fmt.Errorf("surrogate: marshal model: %w", err)
	}
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("surrogate: %w", err)
	}
	tmp, err := os.CreateTemp(dir, ".surrogate-*.tmp")
	if err != nil {
		return fmt.Errorf("surrogate: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		return fmt.Errorf("surrogate: write model: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("surrogate: sync model: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("surrogate: close model: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("surrogate: rename model: %w", err)
	}
	return nil
}

// Load reads and validates a persisted model.
func Load(path string) (*Model, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("surrogate: %w", err)
	}
	var m Model
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("surrogate: parse model %s: %w", path, err)
	}
	if err := m.Valid(); err != nil {
		return nil, fmt.Errorf("surrogate: model %s: %w", path, err)
	}
	return &m, nil
}

// errNoRows is returned by helpers that need a non-empty corpus.
var errNoRows = errors.New("surrogate: empty corpus")
