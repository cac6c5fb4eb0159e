// Package mlfit provides the small machine-learning substrate the paper's
// methodology uses: linear counter-based power models fit by (ridge-)least
// squares, greedy forward feature selection under input-count constraints
// (how the M1-linked models and the hardware power proxy choose their
// counters), and k-means clustering (the Simpoint baseline). Standard
// library only.
package mlfit

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// LinearModel is y ~ intercept + sum_i coef[i] * x[features[i]].
type LinearModel struct {
	Features  []int // column indices into the full feature matrix
	Coef      []float64
	Intercept float64
	// NonNegative records whether the fit constrained coefficients >= 0
	// (hardware power proxies often require positive weights).
	NonNegative bool
}

// Predict evaluates the model on a full feature row.
func (m *LinearModel) Predict(row []float64) float64 {
	y := m.Intercept
	for i, f := range m.Features {
		y += m.Coef[i] * row[f]
	}
	return y
}

// Options configures fitting.
type Options struct {
	Ridge       float64 // L2 regularization strength (0 = plain OLS)
	Intercept   bool
	NonNegative bool // clip-and-refit to keep coefficients >= 0
}

// solve performs Gaussian elimination with partial pivoting on a copy of A|b.
func solve(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	m := make([][]float64, n)
	for i := range m {
		m[i] = append(append([]float64{}, a[i]...), b[i])
	}
	for col := 0; col < n; col++ {
		// Pivot.
		p := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[p][col]) {
				p = r
			}
		}
		if math.Abs(m[p][col]) < 1e-12 {
			return nil, errors.New("mlfit: singular system")
		}
		m[col], m[p] = m[p], m[col]
		pv := m[col][col]
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := m[r][col] / pv
			if f == 0 {
				continue
			}
			for c := col; c <= n; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = m[i][n] / m[i][i]
	}
	return x, nil
}

// Gram holds the target-independent half of the normal equations: the upper
// triangle of A'A, where A is a set of columns of X plus an all-ones
// intercept column. Each entry adds the same row[i]*row[j] products in the
// same sample order as summing the samples per fit would, so every fit
// assembled from it is bit-identical to a fit that re-sums the samples — but
// the samples are read once per X instead of once per candidate column set
// and per target.
type Gram struct {
	x    [][]float64
	pos  []int       // column of X -> index into aa; -1 when not summed
	cols []int       // summed columns, in index order
	aa   [][]float64 // upper triangle; the last index is the ones column
}

// NewGram sums every column of X, so fits over any column set can share it.
func NewGram(X [][]float64) (*Gram, error) {
	if len(X) == 0 {
		return nil, errors.New("mlfit: no samples")
	}
	return newGram(X, allColumns(len(X[0]))), nil
}

func allColumns(n int) []int {
	cols := make([]int, n)
	for i := range cols {
		cols[i] = i
	}
	return cols
}

// newGram sums the given columns of a non-empty X (duplicates are summed
// once).
func newGram(X [][]float64, cols []int) *Gram {
	width := 0
	for _, c := range cols {
		width = max(width, c+1)
	}
	g := &Gram{x: X, pos: make([]int, width)}
	for i := range g.pos {
		g.pos[i] = -1
	}
	for _, c := range cols {
		if g.pos[c] < 0 {
			g.pos[c] = len(g.cols)
			g.cols = append(g.cols, c)
		}
	}
	dim := len(g.cols) + 1
	g.aa = make([][]float64, dim)
	for i := range g.aa {
		g.aa[i] = make([]float64, dim)
	}
	row := make([]float64, dim)
	for _, x := range X {
		g.fillRow(row, x)
		for i := 0; i < dim; i++ {
			for j := i; j < dim; j++ {
				g.aa[i][j] += row[i] * row[j]
			}
		}
	}
	return g
}

// fillRow copies one sample's summed columns into row, followed by the ones
// column.
func (g *Gram) fillRow(row, x []float64) {
	for i, c := range g.cols {
		row[i] = x[c]
	}
	row[len(g.cols)] = 1
}

// Sums pairs a Gram with one target: the vector A'y, summed in the same
// sample order as A'A. Everything a fit of that target needs is here.
type Sums struct {
	g  *Gram
	y  []float64
	ay []float64
}

// Sums sums A'y for target y over the Gram's samples.
func (g *Gram) Sums(y []float64) (*Sums, error) {
	if len(g.x) != len(y) {
		return nil, errors.New("mlfit: bad sample dimensions")
	}
	dim := len(g.cols) + 1
	s := &Sums{g: g, y: y, ay: make([]float64, dim)}
	row := make([]float64, dim)
	for n, x := range g.x {
		g.fillRow(row, x)
		for i := 0; i < dim; i++ {
			s.ay[i] += row[i] * y[n]
		}
	}
	return s, nil
}

// NewSums sums every column of X against y, so FitColumns can then fit any
// column set. Fitting several targets over one X should share a Gram.
func NewSums(X [][]float64, y []float64) (*Sums, error) {
	g, err := NewGram(X)
	if err != nil {
		return nil, err
	}
	return g.Sums(y)
}

// FitColumns fits y on the given columns of X from the precomputed sums.
func (s *Sums) FitColumns(cols []int, opt Options) (*LinearModel, error) {
	k := len(cols)
	dim := k
	if opt.Intercept {
		dim++
	}
	idx := make([]int, dim)
	g := s.g
	for i, c := range cols {
		if c < 0 || c >= len(g.pos) || g.pos[c] < 0 {
			return nil, fmt.Errorf("mlfit: column %d not in the sums", c)
		}
		idx[i] = g.pos[c]
	}
	if opt.Intercept {
		idx[k] = len(s.ay) - 1
	}
	// Normal equations: (Z'Z + ridge I) w = Z'y.
	zt := make([][]float64, dim)
	zy := make([]float64, dim)
	for i, a := range idx {
		zt[i] = make([]float64, dim)
		zy[i] = s.ay[a]
		for j, b := range idx {
			zt[i][j] = g.aa[min(a, b)][max(a, b)]
		}
	}
	for i := 0; i < dim; i++ {
		ridge := opt.Ridge
		if opt.Intercept && i == dim-1 {
			ridge = 0 // do not shrink the intercept
		}
		zt[i][i] += ridge + 1e-9 // tiny jitter for stability
	}
	w, err := solve(zt, zy)
	if err != nil {
		return nil, err
	}
	m := &LinearModel{Features: append([]int{}, cols...), Coef: w[:k], NonNegative: opt.NonNegative}
	if opt.Intercept {
		m.Intercept = w[k]
	}
	if opt.NonNegative {
		// Iteratively drop negative-coefficient features and refit.
		for {
			var keep []int
			for i, c := range m.Coef {
				if c >= 0 {
					keep = append(keep, m.Features[i])
				}
			}
			if len(keep) == len(m.Features) {
				break
			}
			if len(keep) == 0 {
				m.Coef = nil
				m.Features = nil
				break
			}
			sub := opt
			sub.NonNegative = false
			mm, err := s.FitColumns(keep, sub)
			if err != nil {
				return nil, err
			}
			m.Features, m.Coef, m.Intercept = mm.Features, mm.Coef, mm.Intercept
		}
		if m.Intercept < 0 {
			m.Intercept = 0
		}
	}
	return m, nil
}

// FitColumns fits a linear model restricted to the given columns.
func FitColumns(X [][]float64, y []float64, cols []int, opt Options) (*LinearModel, error) {
	if len(X) == 0 || len(X) != len(y) {
		return nil, errors.New("mlfit: bad sample dimensions")
	}
	s, err := newGram(X, cols).Sums(y)
	if err != nil {
		return nil, err
	}
	return s.FitColumns(cols, opt)
}

// Fit fits a linear model on all columns of X.
func Fit(X [][]float64, y []float64, opt Options) (*LinearModel, error) {
	if len(X) == 0 {
		return nil, errors.New("mlfit: no samples")
	}
	return FitColumns(X, y, allColumns(len(X[0])), opt)
}

// MeanAbsPctError returns mean |pred-y|/mean(y) — the "% error on active
// power" metric the paper's model-accuracy figures report.
func MeanAbsPctError(m *LinearModel, X [][]float64, y []float64) float64 {
	if len(X) == 0 {
		return 0
	}
	var meanY, sumAbs float64
	for _, v := range y {
		meanY += v
	}
	meanY /= float64(len(y))
	if meanY == 0 {
		return 0
	}
	for i, row := range X {
		sumAbs += math.Abs(m.Predict(row) - y[i])
	}
	return sumAbs / float64(len(X)) / meanY * 100
}

// ForwardSelect greedily adds up to maxFeatures columns, each step choosing
// the feature that most reduces training error. This is how the methodology
// derives constrained-input power models (Figs. 11 and 15a).
func ForwardSelect(X [][]float64, y []float64, maxFeatures int, opt Options) (*LinearModel, error) {
	s, err := NewSums(X, y)
	if err != nil {
		return nil, err
	}
	return s.ForwardSelect(maxFeatures, opt).At(maxFeatures)
}

// Path is a greedy selection's trajectory: Path[k-1] is the best model seen
// in its first k steps. A step's choice does not depend on the feature
// budget, so a selection run to budget K yields the result of every budget
// k <= K.
type Path []*LinearModel

// At returns the model a selection with a budget of k features settles on:
// the best over its first min(k, len(p)) steps.
func (p Path) At(k int) (*LinearModel, error) {
	if k <= 0 || len(p) == 0 {
		return nil, errors.New("mlfit: forward selection found no usable feature")
	}
	return p[min(k, len(p))-1], nil
}

// ForwardSelect runs greedy forward selection over the summed columns for up
// to maxFeatures steps and returns its path; the path ends early when no
// remaining candidate fits.
func (s *Sums) ForwardSelect(maxFeatures int, opt Options) Path {
	X, y := s.g.x, s.y
	nf := len(X[0])
	if maxFeatures > nf {
		maxFeatures = nf
	}
	var chosen []int
	used := make([]bool, nf)
	var path Path
	var best *LinearModel
	bestErr := math.Inf(1)
	for len(chosen) < maxFeatures {
		stepBestErr := math.Inf(1)
		stepBestF := -1
		var stepBestModel *LinearModel
		for f := 0; f < nf; f++ {
			if used[f] {
				continue
			}
			cand := append(append([]int{}, chosen...), f)
			m, err := s.FitColumns(cand, opt)
			if err != nil {
				continue
			}
			e := MeanAbsPctError(m, X, y)
			if e < stepBestErr {
				stepBestErr, stepBestF, stepBestModel = e, f, m
			}
		}
		if stepBestF < 0 {
			break
		}
		chosen = append(chosen, stepBestF)
		used[stepBestF] = true
		if stepBestErr < bestErr {
			bestErr, best = stepBestErr, stepBestModel
		}
		path = append(path, best)
	}
	return path
}

// KMeans clusters rows into k clusters (deterministic k-means++ style
// seeding using a fixed stride, Lloyd iterations until stable).
// It returns the assignment and the centroids.
func KMeans(X [][]float64, k int, maxIter int) ([]int, [][]float64, error) {
	n := len(X)
	if n == 0 || k <= 0 {
		return nil, nil, fmt.Errorf("mlfit: kmeans with n=%d k=%d", n, k)
	}
	if k > n {
		k = n
	}
	dim := len(X[0])
	cent := make([][]float64, k)
	// Deterministic spread seeding: evenly strided samples after sorting
	// by vector norm.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	norm := func(v []float64) float64 {
		var s float64
		for _, x := range v {
			s += x * x
		}
		return s
	}
	sort.Slice(idx, func(a, b int) bool { return norm(X[idx[a]]) < norm(X[idx[b]]) })
	for c := 0; c < k; c++ {
		cent[c] = append([]float64{}, X[idx[c*n/k]]...)
	}
	assign := make([]int, n)
	dist := func(a, b []float64) float64 {
		var s float64
		for i := range a {
			d := a[i] - b[i]
			s += d * d
		}
		return s
	}
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for i, row := range X {
			best, bd := 0, math.Inf(1)
			for c := range cent {
				if d := dist(row, cent[c]); d < bd {
					best, bd = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		counts := make([]int, k)
		sums := make([][]float64, k)
		for c := range sums {
			sums[c] = make([]float64, dim)
		}
		for i, row := range X {
			c := assign[i]
			counts[c]++
			for j, v := range row {
				sums[c][j] += v
			}
		}
		for c := range cent {
			if counts[c] == 0 {
				continue // keep old centroid
			}
			for j := range cent[c] {
				cent[c][j] = sums[c][j] / float64(counts[c])
			}
		}
	}
	return assign, cent, nil
}

// Correlation returns the Pearson correlation of two series.
func Correlation(a, b []float64) float64 {
	n := len(a)
	if n == 0 || n != len(b) {
		return 0
	}
	var ma, mb float64
	for i := range a {
		ma += a[i]
		mb += b[i]
	}
	ma /= float64(n)
	mb /= float64(n)
	var cov, va, vb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}
