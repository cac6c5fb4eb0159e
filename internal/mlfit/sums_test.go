package mlfit

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// refFitOnColumns assembles the normal equations per call, re-summing every
// sample for each column set, NonNegative refits included. Fits assembled
// from Sums must match it bit for bit.
func refFitOnColumns(X [][]float64, y []float64, cols []int, opt Options) (*LinearModel, error) {
	n := len(X)
	if n == 0 || n != len(y) {
		return nil, errors.New("mlfit: bad sample dimensions")
	}
	k := len(cols)
	dim := k
	if opt.Intercept {
		dim++
	}
	zt := make([][]float64, dim)
	for i := range zt {
		zt[i] = make([]float64, dim)
	}
	zy := make([]float64, dim)
	row := make([]float64, dim)
	for s := 0; s < n; s++ {
		for i, c := range cols {
			row[i] = X[s][c]
		}
		if opt.Intercept {
			row[dim-1] = 1
		}
		for i := 0; i < dim; i++ {
			zy[i] += row[i] * y[s]
			for j := i; j < dim; j++ {
				zt[i][j] += row[i] * row[j]
			}
		}
	}
	for i := 0; i < dim; i++ {
		for j := 0; j < i; j++ {
			zt[i][j] = zt[j][i]
		}
		ridge := opt.Ridge
		if opt.Intercept && i == dim-1 {
			ridge = 0
		}
		zt[i][i] += ridge + 1e-9
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
			mm, err := refFitOnColumns(X, y, keep, sub)
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

// refForwardSelect is ForwardSelect over refFitOnColumns.
func refForwardSelect(X [][]float64, y []float64, maxFeatures int, opt Options) (*LinearModel, error) {
	nf := len(X[0])
	maxFeatures = min(maxFeatures, nf)
	var chosen []int
	used := make([]bool, nf)
	var best *LinearModel
	bestErr := math.Inf(1)
	for len(chosen) < maxFeatures {
		stepBestErr, stepBestF := math.Inf(1), -1
		var stepBestModel *LinearModel
		for f := 0; f < nf; f++ {
			if used[f] {
				continue
			}
			m, err := refFitOnColumns(X, y, append(append([]int{}, chosen...), f), opt)
			if err != nil {
				continue
			}
			if e := MeanAbsPctError(m, X, y); e < stepBestErr {
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
	}
	if best == nil {
		return nil, errors.New("mlfit: forward selection found no usable feature")
	}
	return best, nil
}

// sameModel reports the first bit-level difference between two fit
// outcomes (model or error), or "" when they are identical.
func sameModel(got *LinearModel, gotErr error, want *LinearModel, wantErr error) string {
	switch {
	case (gotErr != nil) != (wantErr != nil):
		return "error mismatch: got " + errString(gotErr) + ", want " + errString(wantErr)
	case gotErr != nil:
		return ""
	case len(got.Features) != len(want.Features) || len(got.Coef) != len(want.Coef):
		return "feature count differs"
	case math.Float64bits(got.Intercept) != math.Float64bits(want.Intercept):
		return "intercept differs"
	case got.NonNegative != want.NonNegative:
		return "NonNegative flag differs"
	}
	for i := range got.Features {
		if got.Features[i] != want.Features[i] {
			return "features differ"
		}
		if math.Float64bits(got.Coef[i]) != math.Float64bits(want.Coef[i]) {
			return "coefficients differ"
		}
	}
	return ""
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// randProblem draws a seeded regression problem with correlated columns of
// mixed scale, a target with both signs of true coefficient, and optionally
// column 3 duplicated into the last column (a singular Gram matrix).
func randProblem(rng *rand.Rand, n, nf int, dup bool) ([][]float64, []float64) {
	X := make([][]float64, n)
	y := make([]float64, n)
	for s := range X {
		row := make([]float64, nf)
		base := rng.Float64()
		for j := range row {
			row[j] = (base*float64(j%3) + rng.Float64()) * math.Pow(10, float64(j%4-2))
		}
		if dup {
			row[nf-1] = row[3]
		}
		X[s] = row
		y[s] = 1 + 3*row[0] - 2*row[1] + 40*row[2] + 0.5*row[nf/2] + 0.05*rng.NormFloat64()
	}
	return X, y
}

var sumsOptions = map[string]Options{
	"ols":          {Intercept: true},
	"no-intercept": {},
	"ridge":        {Intercept: true, Ridge: 0.5},
	"non-negative": {Intercept: true, NonNegative: true},
	"nn-ridge":     {Intercept: true, NonNegative: true, Ridge: 1e-6},
	"nn-no-icpt":   {NonNegative: true},
}

func TestFitColumnsBitIdenticalToPerCallAssembly(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pruned := false
	for trial := 0; trial < 40; trial++ {
		X, y := randProblem(rng, 50+rng.Intn(150), 6+rng.Intn(6), trial%4 == 0)
		nf := len(X[0])
		for name, opt := range sumsOptions {
			cols := rng.Perm(nf)[:1+rng.Intn(nf)]
			if trial%4 == 0 {
				cols = append(cols, nf-1, 3) // the duplicated pair
			}
			got, gerr := FitColumns(X, y, cols, opt)
			want, werr := refFitOnColumns(X, y, cols, opt)
			if d := sameModel(got, gerr, want, werr); d != "" {
				t.Fatalf("trial %d %s cols %v: %s", trial, name, cols, d)
			}
			if opt.NonNegative && werr == nil && len(want.Features) < len(cols) {
				pruned = true
			}
			// One set of sums over every column serves any subset.
			sums, err := NewSums(X, y)
			if err != nil {
				t.Fatal(err)
			}
			got, gerr = sums.FitColumns(cols, opt)
			if d := sameModel(got, gerr, want, werr); d != "" {
				t.Fatalf("trial %d %s cols %v via NewSums: %s", trial, name, cols, d)
			}
		}
	}
	if !pruned {
		t.Error("no NonNegative case pruned a feature; the refit path went untested")
	}
}

// A duplicated column makes X'X exactly singular; only the 1e-9 diagonal
// jitter keeps the system solvable, so the fit is as ill-conditioned as it
// gets and any change in summation order would show in the low bits.
func TestFitBitIdenticalOnDuplicatedColumn(t *testing.T) {
	X, y := randProblem(rand.New(rand.NewSource(12)), 80, 8, true)
	for name, opt := range sumsOptions {
		got, gerr := Fit(X, y, opt)
		want, werr := refFitOnColumns(X, y, allColumns(len(X[0])), opt)
		if d := sameModel(got, gerr, want, werr); d != "" {
			t.Errorf("%s: %s", name, d)
		}
		cols := []int{3, 3}
		got, gerr = FitColumns(X, y, cols, opt)
		want, werr = refFitOnColumns(X, y, cols, opt)
		if d := sameModel(got, gerr, want, werr); d != "" {
			t.Errorf("%s cols %v: %s", name, cols, d)
		}
	}
	// A ridge that cancels the jitter on an all-zero column leaves an exact
	// zero pivot: both assemblies must fail the same way.
	for _, row := range X {
		row[5] = 0
	}
	opt := Options{Ridge: -1e-9}
	got, gerr := FitColumns(X, y, []int{0, 5}, opt)
	want, werr := refFitOnColumns(X, y, []int{0, 5}, opt)
	if werr == nil {
		t.Fatal("reference fit on a zero column did not report a singular system")
	}
	if d := sameModel(got, gerr, want, werr); d != "" {
		t.Errorf("zero column: %s", d)
	}
}

func TestForwardSelectBitIdenticalToPerCallAssembly(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 8; trial++ {
		X, y := randProblem(rng, 60+rng.Intn(100), 8+rng.Intn(5), trial%3 == 0)
		for name, opt := range sumsOptions {
			k := 1 + rng.Intn(len(X[0]))
			got, gerr := ForwardSelect(X, y, k, opt)
			want, werr := refForwardSelect(X, y, k, opt)
			if d := sameModel(got, gerr, want, werr); d != "" {
				t.Fatalf("trial %d %s k=%d: %s", trial, name, k, d)
			}
		}
	}
}

// fig11Shape is the quick-sweep Fig. 11 corpus shape: 2348 epoch samples of
// the 53 per-cycle counters.
const fig11Samples, fig11Counters = 2348, 53

// fig11Problem draws a seeded matrix of that shape with counter-like
// structure: non-negative per-cycle rates, a few sums of other counters
// (occupancies and totals are), and one counter that never fires.
func fig11Problem(seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, fig11Samples)
	y := make([]float64, fig11Samples)
	w := make([]float64, fig11Counters)
	for j := range w {
		w[j] = rng.Float64() * float64(j%5)
	}
	for s := range X {
		row := make([]float64, fig11Counters)
		phase := rng.Float64()
		for j := range row {
			row[j] = phase*rng.Float64()*float64(1+j%7) + 0.1*rng.Float64()
		}
		row[10] = row[8] + row[9]
		row[20] = row[15] + row[16] + row[17]
		row[30] = 0
		X[s] = row
		for j, v := range row {
			y[s] += w[j] * v
		}
		y[s] += 0.2 * rng.NormFloat64()
	}
	return X, y
}

func TestForwardSelectBitIdenticalOnFig11Shape(t *testing.T) {
	X, y := fig11Problem(14)
	for _, c := range []struct {
		name string
		k    int
	}{{"ols", 8}, {"ridge", 4}, {"non-negative", 6}, {"no-intercept", 2}} {
		got, gerr := ForwardSelect(X, y, c.k, sumsOptions[c.name])
		want, werr := refForwardSelect(X, y, c.k, sumsOptions[c.name])
		if d := sameModel(got, gerr, want, werr); d != "" {
			t.Errorf("%s k=%d: %s", c.name, c.k, d)
		}
	}
}

func TestSumsRejectsUnsummedColumn(t *testing.T) {
	X, y := synthData(20, 0, 1)
	s, err := newGram(X, []int{0, 2}).Sums(y)
	if err != nil {
		t.Fatal(err)
	}
	for _, cols := range [][]int{{1}, {5}, {-1}} {
		if _, err := s.FitColumns(cols, Options{}); err == nil {
			t.Errorf("FitColumns(%v) on sums of columns 0 and 2: no error", cols)
		}
	}
	if _, err := NewSums(X, y[:5]); err == nil {
		t.Error("NewSums with mismatched y: no error")
	}
}

// BenchmarkForwardSelect times one greedy selection up to 16 inputs on the
// quick Fig. 11 corpus shape, the fit Fig. 12's top-down model runs.
func BenchmarkForwardSelect(b *testing.B) {
	X, y := fig11Problem(14)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := ForwardSelect(X, y, 16, Options{Intercept: true})
		if err != nil {
			b.Fatal(err)
		}
		modelSink = m
	}
}

// modelSink keeps BenchmarkForwardSelect's result live.
var modelSink *LinearModel

// One Gram serves every target over the same X: each target's fits must
// match the per-call assembly bit for bit.
func TestGramSharedAcrossTargetsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	X, y := randProblem(rng, 120, 9, true)
	g, err := NewGram(X)
	if err != nil {
		t.Fatal(err)
	}
	targets := [][]float64{y, make([]float64, len(y)), make([]float64, len(y))}
	for s := range X {
		targets[1][s] = 2*X[s][4] - X[s][7] + 0.1*rng.NormFloat64()
		targets[2][s] = float64(s % 3)
	}
	for ti, ty := range targets {
		sums, err := g.Sums(ty)
		if err != nil {
			t.Fatal(err)
		}
		for name, opt := range sumsOptions {
			for _, cols := range [][]int{{0}, {2, 5, 1}, allColumns(len(X[0])), {3, 8}} {
				got, gerr := sums.FitColumns(cols, opt)
				want, werr := refFitOnColumns(X, ty, cols, opt)
				if d := sameModel(got, gerr, want, werr); d != "" {
					t.Fatalf("target %d %s cols %v: %s", ti, name, cols, d)
				}
			}
		}
	}
	if _, err := g.Sums(y[:3]); err == nil {
		t.Error("Gram.Sums with mismatched y: no error")
	}
	if _, err := NewGram(nil); err == nil {
		t.Error("NewGram with no samples: no error")
	}
}

// A selection path run to budget K must give, at every k <= K, exactly the
// model a per-budget selection with per-call assembly returns.
func TestPathMatchesPerBudgetSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 4; trial++ {
		X, y := randProblem(rng, 60+rng.Intn(80), 7+rng.Intn(4), trial%2 == 0)
		nf := len(X[0])
		sums, err := NewSums(X, y)
		if err != nil {
			t.Fatal(err)
		}
		for name, opt := range sumsOptions {
			path := sums.ForwardSelect(nf+2, opt)
			for k := 0; k <= nf+2; k++ {
				got, gerr := path.At(k)
				want, werr := refForwardSelect(X, y, k, opt)
				if d := sameModel(got, gerr, want, werr); d != "" {
					t.Fatalf("trial %d %s k=%d: %s", trial, name, k, d)
				}
			}
		}
	}
}

func TestPathOnFig11ShapeMatchesPerBudgetSelection(t *testing.T) {
	X, y := fig11Problem(17)
	sums, err := NewSums(X, y)
	if err != nil {
		t.Fatal(err)
	}
	budgets := []int{1, 2, 4, 8}
	for _, name := range []string{"ols", "non-negative"} {
		path := sums.ForwardSelect(8, sumsOptions[name])
		for _, k := range budgets {
			got, gerr := path.At(k)
			want, werr := refForwardSelect(X, y, k, sumsOptions[name])
			if d := sameModel(got, gerr, want, werr); d != "" {
				t.Errorf("%s k=%d: %s", name, k, d)
			}
		}
	}
}
