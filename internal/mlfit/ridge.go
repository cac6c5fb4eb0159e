// ridge.go is the surrogate-grade half of mlfit: a Householder-QR least
// squares core used only by the ridge fits here (the classic LinearModel path
// solves normal equations through Sums), plus RidgeModel — a standardized
// ridge regression with leave-one-out cross-validation (exact, via the
// hat-matrix diagonal), greedy forward feature selection scored by LOO error,
// and leverage-based per-prediction uncertainty. RidgeModel is fully
// exported-field so it serializes to JSON and reloads with bit-identical
// predictions (encoding/json round-trips float64 exactly).
package mlfit

import (
	"errors"
	"fmt"
	"math"
)

const (
	// ridgeJitter is the minimum effective ridge on every column (including
	// a requested ridge of zero): it keeps exactly collinear columns
	// solvable, matching the historical normal-equations jitter.
	ridgeJitter = 1e-9
	// condLimit is the R-diagonal ratio beyond which the system is reported
	// singular rather than silently solved with garbage digits.
	condLimit = 1e14
	// hatFloor bounds 1-h away from zero in the LOO residual e/(1-h): a
	// leverage of exactly 1 means the point is only explained by itself.
	hatFloor = 1e-8
	// selectMinGain is the relative LOO-RMSE improvement a new feature must
	// deliver for forward selection to keep it.
	selectMinGain = 1e-3
)

// DefaultLambdas is the ridge grid FitRidgeCV searches when the caller does
// not supply one. Features are standardized, so the scale is data-independent.
var DefaultLambdas = []float64{1e-4, 1e-3, 1e-2, 1e-1, 1, 10}

// householder turns col[p:] into the Householder vector that reflects it
// onto the p-th unit vector and returns that reflection's R diagonal entry,
// -||col[p:]||. A column that is already zero from row p down is left as is
// and gets a zero diagonal: there is no reflection to apply.
func householder(col []float64, p int) float64 {
	v := col[p:]
	// Column norm below the diagonal, accumulated with hypot for range.
	nrm := 0.0
	for _, x := range v {
		nrm = math.Hypot(nrm, x)
	}
	if nrm != 0 {
		if v[0] < 0 {
			nrm = -nrm
		}
		for i := range v {
			v[i] /= nrm
		}
		v[0] += 1
	}
	return -nrm
}

// applyReflector applies the reflection householder left in v at row p to c.
func applyReflector(v, c []float64, p int) {
	m := len(v)
	v, c = v[p:m], c[p:m]
	s := 0.0
	for i, x := range v {
		s += x * c[i]
	}
	s = -s / v[0]
	for i, x := range v {
		c[i] += s * x
	}
}

// qrStep is one Householder QR step on column k of cols: it computes the
// column's reflection and applies it to every later column and to b. It
// returns R's k-th diagonal entry. Each later column's update reads only
// column k, so the order the later columns are visited in does not change a
// bit of the result.
func qrStep(cols [][]float64, k int, b []float64) float64 {
	v := cols[k]
	rkk := householder(v, k)
	if rkk != 0 {
		for _, c := range cols[k+1:] {
			applyReflector(v, c, k)
		}
		applyReflector(v, b, k)
	}
	return rkk
}

// conditioned reports whether an R diagonal is usable: no zero entry and a
// largest-to-smallest ratio within condLimit.
func conditioned(rdiag []float64) bool {
	rmin, rmax := math.Inf(1), 0.0
	for _, d := range rdiag {
		ad := math.Abs(d)
		if ad < rmin {
			rmin = ad
		}
		if ad > rmax {
			rmax = ad
		}
	}
	return rmin != 0 && rmax/rmin <= condLimit
}

// backSubstitute solves R x = b[:len(x)], where R is stored the way qrStep
// leaves it: rdiag on the diagonal, cols[j][i] above it (i < j).
func backSubstitute(cols [][]float64, rdiag, b, x []float64) {
	n := len(x)
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for j := i + 1; j < n; j++ {
			s -= cols[j][i] * x[j]
		}
		x[i] = s / rdiag[i]
	}
}

// qrLS solves the dense least-squares problem min ||A x - b||_2 in place by
// Householder QR. cols holds A column by column, each column as long as b
// (m rows, m >= len(cols)). On return the columns hold the R factor above
// the diagonal and the returned r is an explicit upper-triangular copy of
// it. The factorization fails with "mlfit: singular system" when R's
// diagonal ratio exceeds condLimit (rank deficiency the caller's ridge did
// not cover).
func qrLS(cols [][]float64, b []float64) (x []float64, r [][]float64, err error) {
	n, m := len(cols), len(b)
	if m < n {
		return nil, nil, errors.New("mlfit: bad least-squares dimensions")
	}
	for _, c := range cols {
		if len(c) != m {
			return nil, nil, errors.New("mlfit: bad least-squares dimensions")
		}
	}
	rdiag := make([]float64, n)
	for k := range cols {
		rdiag[k] = qrStep(cols, k, b)
	}
	if !conditioned(rdiag) {
		return nil, nil, errors.New("mlfit: singular system")
	}
	x = make([]float64, n)
	backSubstitute(cols, rdiag, b, x)
	r = make([][]float64, n)
	for i := range r {
		r[i] = make([]float64, n)
		r[i][i] = rdiag[i]
		for j := i + 1; j < n; j++ {
			r[i][j] = cols[j][i]
		}
	}
	return x, r, nil
}

// RidgeModel is a standardized ridge regression with enough factorization
// state to price its own uncertainty: y ~ intercept + sum_j coef[j] *
// (x[features[j]] - mean[j]) / scale[j], with a per-prediction standard error
// derived from the LOO residual variance and the point's leverage under the
// stored R factor. All fields are exported so the model persists as JSON and
// reloads with bit-identical predictions.
type RidgeModel struct {
	// Features are column indices into the full feature row; Names are the
	// matching human-readable labels when the fit was given any.
	Features []int    `json:"features"`
	Names    []string `json:"names,omitempty"`
	// Mean and Scale standardize each selected feature before the linear map.
	Mean  []float64 `json:"mean"`
	Scale []float64 `json:"scale"`
	// Coef applies in standardized space; Intercept is unshrunk.
	Coef      []float64 `json:"coef"`
	Intercept float64   `json:"intercept"`
	// Lambda is the ridge strength LOO cross-validation chose.
	Lambda float64 `json:"lambda"`
	// Sigma2 is the LOO residual variance (the honest noise estimate — the
	// training residual variance is biased low by the fit itself).
	Sigma2 float64 `json:"sigma2"`
	// R is the (k+1)x(k+1) upper-triangular factor of the ridge-augmented
	// design matrix, intercept column last: R'R = Z'Z + diag(lambda, .., 0).
	// Leverage of a new point z is ||R^-T z||^2, which is what prices
	// extrapolation: far-from-training points get wide error bars.
	R [][]float64 `json:"r"`
	// LOORMSE is the leave-one-out RMSE on the training set, N its size.
	LOORMSE float64 `json:"loo_rmse"`
	N       int     `json:"n"`
}

// ScratchLen is the scratch-slice length PredictStd needs for a zero-alloc
// prediction.
func (m *RidgeModel) ScratchLen() int { return 2 * (len(m.Coef) + 1) }

// Predict evaluates the mean prediction on a full feature row.
func (m *RidgeModel) Predict(row []float64) float64 {
	y := m.Intercept
	for j, f := range m.Features {
		y += m.Coef[j] * (row[f] - m.Mean[j]) / m.Scale[j]
	}
	return y
}

// PredictStd returns the mean prediction and its standard error on a full
// feature row. The std is sqrt(sigma2 * (1 + leverage)): LOO noise plus the
// parameter-uncertainty term, so points far outside the training cloud are
// priced as uncertain instead of confidently wrong. scratch must be at least
// ScratchLen() long for an allocation-free call; a short or nil scratch is
// replaced by a fresh allocation.
func (m *RidgeModel) PredictStd(row []float64, scratch []float64) (mean, std float64) {
	k := len(m.Coef)
	dim := k + 1
	if len(scratch) < 2*dim {
		scratch = make([]float64, 2*dim)
	}
	z := scratch[:dim]
	u := scratch[dim : 2*dim]
	mean = m.Intercept
	for j, f := range m.Features {
		zj := (row[f] - m.Mean[j]) / m.Scale[j]
		z[j] = zj
		mean += m.Coef[j] * zj
	}
	z[k] = 1
	// Forward-substitute R' u = z; leverage is ||u||^2.
	for i := 0; i < dim; i++ {
		s := z[i]
		for j := 0; j < i; j++ {
			s -= m.R[j][i] * u[j]
		}
		u[i] = s / m.R[i][i]
	}
	h := 0.0
	for i := 0; i < dim; i++ {
		h += u[i] * u[i]
	}
	std = math.Sqrt(m.Sigma2 * (1 + h))
	return mean, std
}

// Valid reports whether a (possibly deserialized) model is structurally
// usable: consistent slice lengths, a full R factor with a nonzero diagonal.
func (m *RidgeModel) Valid() error {
	k := len(m.Coef)
	if len(m.Features) != k || len(m.Mean) != k || len(m.Scale) != k {
		return fmt.Errorf("mlfit: ridge model slice lengths disagree (%d features, %d mean, %d scale, %d coef)",
			len(m.Features), len(m.Mean), len(m.Scale), k)
	}
	dim := k + 1
	if len(m.R) != dim {
		return fmt.Errorf("mlfit: ridge model R is %dx, want %dx", len(m.R), dim)
	}
	for i, row := range m.R {
		if len(row) != dim {
			return fmt.Errorf("mlfit: ridge model R row %d has %d cols, want %d", i, len(row), dim)
		}
		if row[i] == 0 || math.IsNaN(row[i]) || math.IsInf(row[i], 0) {
			return fmt.Errorf("mlfit: ridge model R diagonal %d is %v", i, row[i])
		}
	}
	for j, s := range m.Scale {
		if s == 0 || math.IsNaN(s) {
			return fmt.Errorf("mlfit: ridge model scale %d is %v", j, s)
		}
	}
	return nil
}

// standardize computes per-column mean and standard deviation over the
// selected columns. Constant columns get scale 1 (their standardized value is
// identically zero and the ridge absorbs them).
func standardize(X [][]float64, cols []int) (mean, scale []float64) {
	n := float64(len(X))
	mean = make([]float64, len(cols))
	scale = make([]float64, len(cols))
	for j, c := range cols {
		var s float64
		for _, row := range X {
			s += row[c]
		}
		mean[j] = s / n
		var v float64
		for _, row := range X {
			d := row[c] - mean[j]
			v += d * d
		}
		sd := math.Sqrt(v / n)
		if sd < 1e-12 {
			sd = 1
		}
		scale[j] = sd
	}
	return mean, scale
}

// buildZ renders the standardized design matrix for the selected columns
// column by column, each column n rows long, with a trailing ones column for
// the intercept.
func buildZ(X [][]float64, cols []int, mean, scale []float64) [][]float64 {
	Z := make([][]float64, len(cols)+1)
	for j, c := range cols {
		z := make([]float64, len(X))
		for s, row := range X {
			z[s] = (row[c] - mean[j]) / scale[j]
		}
		Z[j] = z
	}
	ones := make([]float64, len(X))
	for s := range ones {
		ones[s] = 1
	}
	Z[len(cols)] = ones
	return Z
}

// augmentInto writes the data column z into dst's first rows and zeroes the
// ridge rows below them, except row at, which gets the ridge entry d.
func augmentInto(dst, z []float64, at int, d float64) []float64 {
	copy(dst, z)
	clear(dst[len(z):])
	dst[at] = d
	return dst
}

// ridgeLOO fits coef on the standardized design Z (columns of n rows, ones
// column last and not shrunk) at the given lambda and returns the exact
// leave-one-out RMSE via the hat-matrix diagonal: h_i = ||R^-T z_i||^2 and
// e_loo = e_i / (1 - h_i). When wantR is true the explicit R factor is also
// returned.
func ridgeLOO(Z [][]float64, y []float64, lambda float64, wantR bool) (coef []float64, r [][]float64, looRMSE float64, err error) {
	if len(Z) == 0 || len(Z[0]) == 0 {
		return nil, nil, 0, errors.New("mlfit: no samples")
	}
	n, dim := len(Z[0]), len(Z)
	a := make([][]float64, dim)
	for j, z := range Z {
		l := lambda
		if j == dim-1 {
			l = 0 // intercept column
		}
		a[j] = augmentInto(make([]float64, n+dim), z, n+j, math.Sqrt(l+ridgeJitter))
	}
	b := make([]float64, n+dim)
	copy(b, y[:n])
	coef, r, err = qrLS(a, b)
	if err != nil {
		return nil, nil, 0, err
	}
	u := make([]float64, dim)
	var sse float64
	for i := 0; i < n; i++ {
		// Forward-substitute R' u = z_i for the leverage.
		for p := 0; p < dim; p++ {
			s := Z[p][i]
			for q := 0; q < p; q++ {
				s -= r[q][p] * u[q]
			}
			u[p] = s / r[p][p]
		}
		var h, pred float64
		for p := 0; p < dim; p++ {
			h += u[p] * u[p]
			pred += coef[p] * Z[p][i]
		}
		denom := 1 - h
		if denom < hatFloor {
			denom = hatFloor
		}
		e := (y[i] - pred) / denom
		sse += e * e
	}
	looRMSE = math.Sqrt(sse / float64(n))
	if !wantR {
		r = nil
	}
	return coef, r, looRMSE, nil
}

// selectStep is the work one forward-selection step shares among its
// candidates. Every candidate fit of a step factors the same augmented
// matrix, m = n+k+2 rows by the k chosen columns, then the candidate, then
// the unshrunk intercept, and the first k Householder reflections depend on
// the chosen columns alone. selectStep makes them once and applies them to
// the intercept column and to y, so scoring a candidate reflects only the
// candidate's column, finishes the last two QR steps and back-substitutes:
// O(n*k) per candidate instead of O(n*k^2), with no allocation. Every column
// sees the same floating-point operations in the same order as a from-scratch
// qrLS of the candidate's matrix, so the scores are bit-identical to it.
type selectStep struct {
	z     [][]float64 // standardized columns of every feature, ones column last
	y     []float64
	ridge float64 // sqrt(lambda + ridgeJitter): the shrunk columns' ridge entry
	// cols holds the factored chosen columns, then the candidate's and the
	// intercept's working columns; data holds the same columns unreflected.
	cols, data [][]float64
	rdiag      []float64
	// one and rhs are the intercept column and y after the chosen columns'
	// reflections; b, x and pred are per-candidate working space.
	one, rhs   []float64
	b, x, pred []float64
}

// newSelectStep factors the chosen columns for one forward-selection step.
func newSelectStep(z [][]float64, y []float64, chosen []int, lambda float64) *selectStep {
	n, k := len(y), len(chosen)
	m := n + k + 2
	st := &selectStep{
		z:     z,
		y:     y,
		ridge: math.Sqrt(lambda + ridgeJitter),
		cols:  make([][]float64, k+2),
		data:  make([][]float64, k+2),
		rdiag: make([]float64, k+2),
		rhs:   make([]float64, m),
		b:     make([]float64, m),
		x:     make([]float64, k+2),
		pred:  make([]float64, n),
	}
	ones := z[len(z)-1]
	for p, c := range chosen {
		st.cols[p] = augmentInto(make([]float64, m), z[c], n+p, st.ridge)
		st.data[p] = z[c]
	}
	st.one = augmentInto(make([]float64, m), ones, n+k+1, math.Sqrt(ridgeJitter)) // unshrunk
	copy(st.rhs, y)
	prefix := append(st.cols[:k:k], st.one)
	for p := 0; p < k; p++ {
		st.rdiag[p] = qrStep(prefix, p, st.rhs)
	}
	st.cols[k] = make([]float64, m)
	st.cols[k+1] = make([]float64, m)
	st.data[k+1] = ones
	return st
}

// score fits the chosen columns plus feature f and returns the fit's
// training SSE; ok is false when the system is singular.
func (st *selectStep) score(f int) (sse float64, ok bool) {
	n, k := len(st.y), len(st.cols)-2
	c := augmentInto(st.cols[k], st.z[f], n+k, st.ridge)
	for p := 0; p < k; p++ {
		if st.rdiag[p] != 0 {
			applyReflector(st.cols[p], c, p)
		}
	}
	copy(st.cols[k+1], st.one)
	copy(st.b, st.rhs)
	st.rdiag[k] = qrStep(st.cols, k, st.b)
	st.rdiag[k+1] = qrStep(st.cols, k+1, st.b)
	if !conditioned(st.rdiag) {
		return 0, false
	}
	backSubstitute(st.cols, st.rdiag, st.b, st.x)
	st.data[k] = st.z[f]
	pred := st.pred
	clear(pred)
	for p, xp := range st.x {
		for i, v := range st.data[p] {
			pred[i] += xp * v
		}
	}
	for i, yi := range st.y {
		d := yi - pred[i]
		sse += d * d
	}
	return sse, true
}

// fitRidgeModel assembles a RidgeModel for the chosen columns: it searches
// the lambda grid by LOO RMSE and keeps the winner's factorization.
func fitRidgeModel(X [][]float64, y []float64, cols []int, names []string, lambdas []float64) (*RidgeModel, error) {
	if len(lambdas) == 0 {
		lambdas = DefaultLambdas
	}
	mean, scale := standardize(X, cols)
	Z := buildZ(X, cols, mean, scale)
	var (
		best     *RidgeModel
		bestRMSE = math.Inf(1)
	)
	for _, l := range lambdas {
		coef, r, rmse, err := ridgeLOO(Z, y, l, true)
		if err != nil {
			continue
		}
		if rmse < bestRMSE {
			bestRMSE = rmse
			k := len(cols)
			m := &RidgeModel{
				Features:  append([]int(nil), cols...),
				Mean:      mean,
				Scale:     scale,
				Coef:      coef[:k],
				Intercept: coef[k],
				Lambda:    l,
				Sigma2:    rmse * rmse,
				R:         r,
				LOORMSE:   rmse,
				N:         len(X),
			}
			if names != nil {
				m.Names = make([]string, k)
				for j, c := range cols {
					m.Names[j] = names[c]
				}
			}
			best = m
		}
	}
	if best == nil {
		return nil, errors.New("mlfit: ridge fit failed at every lambda")
	}
	return best, nil
}

// FitRidgeCV fits a standardized ridge regression of y on the selected
// columns, choosing the ridge strength from the lambda grid (DefaultLambdas
// when nil) by exact leave-one-out cross-validation. names may be nil or a
// full-width feature-name list.
func FitRidgeCV(X [][]float64, y []float64, cols []int, names []string, lambdas []float64) (*RidgeModel, error) {
	if len(X) == 0 || len(X) != len(y) {
		return nil, errors.New("mlfit: bad sample dimensions")
	}
	if len(cols) == 0 {
		return nil, errors.New("mlfit: no columns selected")
	}
	return fitRidgeModel(X, y, cols, names, lambdas)
}

// ForwardSelectRidgeCV greedily grows a feature set for a standardized ridge
// model: each step adds the candidate with the lowest training RMSE at a
// mid-grid lambda, then keeps it only if the step's LOO RMSE improves on the
// incumbent by selectMinGain. The final model re-searches the full lambda
// grid on the chosen set. This is the honest version of ForwardSelect for
// prediction (training error always rewards more features; LOO does not).
func ForwardSelectRidgeCV(X [][]float64, y []float64, names []string, maxFeatures int, lambdas []float64) (*RidgeModel, error) {
	n := len(X)
	if n == 0 || n != len(y) {
		return nil, errors.New("mlfit: bad sample dimensions")
	}
	if len(lambdas) == 0 {
		lambdas = DefaultLambdas
	}
	nf := len(X[0])
	if nf == 0 {
		return nil, errors.New("mlfit: no features")
	}
	if maxFeatures > nf {
		maxFeatures = nf
	}
	// Never fit more parameters than a third of the samples can support.
	if lim := n/3 + 1; maxFeatures > lim {
		maxFeatures = lim
	}
	lambdaMid := lambdas[len(lambdas)/2]
	allCols := make([]int, nf)
	for i := range allCols {
		allCols[i] = i
	}
	fullMean, fullScale := standardize(X, allCols)
	z := buildZ(X, allCols, fullMean, fullScale)
	var (
		chosen   []int
		used     = make([]bool, nf)
		bestLOO  = math.Inf(1)
		haveBest = false
	)
	for len(chosen) < maxFeatures {
		st := newSelectStep(z, y, chosen, lambdaMid)
		stepErr := math.Inf(1)
		stepF := -1
		for f := 0; f < nf; f++ {
			if used[f] {
				continue
			}
			if sse, ok := st.score(f); ok && sse < stepErr {
				stepErr, stepF = sse, f
			}
		}
		if stepF < 0 {
			break
		}
		Z := make([][]float64, 0, len(chosen)+2)
		for _, c := range chosen {
			Z = append(Z, z[c])
		}
		Z = append(Z, z[stepF], z[nf])
		_, _, loo, err := ridgeLOO(Z, y, lambdaMid, false)
		if err != nil {
			break
		}
		if haveBest && loo >= bestLOO*(1-selectMinGain) {
			break // diminishing returns: the honest error stopped improving
		}
		bestLOO, haveBest = loo, true
		chosen = append(chosen, stepF)
		used[stepF] = true
	}
	if len(chosen) == 0 {
		return nil, errors.New("mlfit: forward selection found no usable feature")
	}
	return fitRidgeModel(X, y, chosen, names, lambdas)
}
