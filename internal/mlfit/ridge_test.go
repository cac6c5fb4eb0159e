package mlfit

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
)

// testRNG is a deterministic splitmix64 generator so fits are reproducible.
type testRNG struct{ state uint64 }

func (r *testRNG) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// float returns a uniform in [0, 1).
func (r *testRNG) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// TestQRNearCollinearFeatures is the numerical-robustness regression test:
// two config features that are almost exact copies of each other (the kind of
// correlation cache-size and associativity features have). The old
// normal-equations path squared the condition number and silently degraded;
// the QR path must keep the *predictions* accurate even though the individual
// coefficients are ill-determined.
func TestQRNearCollinearFeatures(t *testing.T) {
	rng := &testRNG{state: 7}
	const n = 200
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		x1 := rng.float() * 10
		x2 := x1 + 1e-9*rng.float() // nearly collinear
		x3 := rng.float()
		X[i] = []float64{x1, x2, x3}
		y[i] = 2*x1 + 3*x2 - 1.5*x3 + 4
	}
	m, err := FitRidgeCV(X, y, []int{0, 1, 2}, []string{"x1", "x2", "x3"}, []float64{0})
	if err != nil {
		t.Fatalf("fit on near-collinear features: %v", err)
	}
	for i, row := range X {
		if d := math.Abs(m.Predict(row) - y[i]); d > 1e-4 {
			t.Fatalf("sample %d: |pred-y| = %g, want < 1e-4", i, d)
		}
	}
	// An exactly duplicated column must also stay solvable (jitter floor).
	for i := range X {
		X[i][1] = X[i][0]
	}
	if _, err := FitRidgeCV(X, y, []int{0, 1, 2}, []string{"x1", "x2", "x3"}, []float64{0}); err != nil {
		t.Fatalf("fit on exactly collinear features: %v", err)
	}
}

// columns transposes a row-major matrix into the column-major layout qrLS
// and ridgeLOO take.
func columns(rows [][]float64) [][]float64 {
	cols := make([][]float64, len(rows[0]))
	for j := range cols {
		cols[j] = make([]float64, len(rows))
		for i, row := range rows {
			cols[j][i] = row[j]
		}
	}
	return cols
}

// TestRidgeLOOMatchesBruteForce checks the hat-diagonal LOO shortcut against
// literally refitting with each sample held out.
func TestRidgeLOOMatchesBruteForce(t *testing.T) {
	rng := &testRNG{state: 42}
	const (
		n      = 14
		dim    = 3 // 2 features + intercept column
		lambda = 0.1
	)
	Z := make([][]float64, n)
	y := make([]float64, n)
	for i := range Z {
		Z[i] = []float64{rng.float()*2 - 1, rng.float()*2 - 1, 1}
		y[i] = 1.5*Z[i][0] - 0.7*Z[i][1] + 0.3 + 0.05*(rng.float()-0.5)
	}
	_, _, fast, err := ridgeLOO(columns(Z), y, lambda, false)
	if err != nil {
		t.Fatalf("ridgeLOO: %v", err)
	}
	// Brute force: refit on n-1 samples, predict the held-out one.
	var sse float64
	for hold := 0; hold < n; hold++ {
		a := make([][]float64, 0, n-1+dim)
		b := make([]float64, 0, n-1+dim)
		for i := range Z {
			if i == hold {
				continue
			}
			a = append(a, append([]float64(nil), Z[i]...))
			b = append(b, y[i])
		}
		for j := 0; j < dim; j++ {
			row := make([]float64, dim)
			l := lambda
			if j == dim-1 {
				l = 0
			}
			row[j] = math.Sqrt(l + ridgeJitter)
			a = append(a, row)
			b = append(b, 0)
		}
		coef, _, err := qrLS(columns(a), b)
		if err != nil {
			t.Fatalf("hold-out %d: %v", hold, err)
		}
		var pred float64
		for p, c := range coef {
			pred += c * Z[hold][p]
		}
		e := y[hold] - pred
		sse += e * e
	}
	brute := math.Sqrt(sse / n)
	if d := math.Abs(fast - brute); d > 1e-9 {
		t.Fatalf("LOO shortcut %.12f vs brute force %.12f (|d|=%g)", fast, brute, d)
	}
}

// TestRidgeModelJSONRoundTrip asserts bit-identical predictions after a
// marshal/unmarshal cycle — the property the surrogate's byte-stable output
// contract rests on.
func TestRidgeModelJSONRoundTrip(t *testing.T) {
	rng := &testRNG{state: 3}
	const n = 60
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{rng.float() * 7, rng.float(), rng.float() * 100}
		y[i] = 0.4*X[i][0] - 2*X[i][1] + 0.01*X[i][2] + 1 + 0.01*(rng.float()-0.5)
	}
	m, err := FitRidgeCV(X, y, []int{0, 1, 2}, []string{"a", "b", "c"}, nil)
	if err != nil {
		t.Fatalf("FitRidgeCV: %v", err)
	}
	blob, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back RidgeModel
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if err := back.Valid(); err != nil {
		t.Fatalf("reloaded model invalid: %v", err)
	}
	scratch := make([]float64, m.ScratchLen())
	for i := 0; i < n; i++ {
		m1, s1 := m.PredictStd(X[i], scratch)
		m2, s2 := back.PredictStd(X[i], scratch)
		if m1 != m2 || s1 != s2 {
			t.Fatalf("row %d: prediction drifted across JSON round-trip: (%v,%v) vs (%v,%v)", i, m1, s1, m2, s2)
		}
	}
}

// TestForwardSelectRidgeCV checks that CV-scored selection finds the
// informative features, ignores noise columns, and that the resulting
// uncertainty estimate widens away from the training cloud.
func TestForwardSelectRidgeCV(t *testing.T) {
	rng := &testRNG{state: 11}
	const n, nf = 150, 8
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		row := make([]float64, nf)
		for j := range row {
			row[j] = rng.float()*2 - 1
		}
		X[i] = row
		y[i] = 3*row[2] - 2*row[5] + 0.5 + 0.01*(rng.float()-0.5)
	}
	m, err := ForwardSelectRidgeCV(X, y, nil, 4, nil)
	if err != nil {
		t.Fatalf("ForwardSelectRidgeCV: %v", err)
	}
	got := map[int]bool{}
	for _, f := range m.Features {
		got[f] = true
	}
	if !got[2] || !got[5] {
		t.Fatalf("selection missed informative features: chose %v", m.Features)
	}
	if m.LOORMSE > 0.05 {
		t.Fatalf("LOO RMSE %.4f, want <= 0.05", m.LOORMSE)
	}
	scratch := make([]float64, m.ScratchLen())
	inRow := X[0]
	farRow := make([]float64, nf)
	for j := range farRow {
		farRow[j] = 25 // far outside the [-1,1] training cloud
	}
	_, sIn := m.PredictStd(inRow, scratch)
	_, sFar := m.PredictStd(farRow, scratch)
	if sFar <= sIn*2 {
		t.Fatalf("extrapolation std %.6f not meaningfully wider than interpolation std %.6f", sFar, sIn)
	}
}

// TestPredictStdZeroAllocScratch guards the steady-state allocation contract
// the surrogate tier depends on.
func TestPredictStdZeroAllocScratch(t *testing.T) {
	rng := &testRNG{state: 5}
	const n = 40
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{rng.float(), rng.float()}
		y[i] = X[i][0] + 2*X[i][1]
	}
	m, err := FitRidgeCV(X, y, []int{0, 1}, nil, nil)
	if err != nil {
		t.Fatalf("FitRidgeCV: %v", err)
	}
	scratch := make([]float64, m.ScratchLen())
	row := X[0]
	allocs := testing.AllocsPerRun(100, func() {
		m.PredictStd(row, scratch)
	})
	if allocs != 0 {
		t.Fatalf("PredictStd allocates %v allocs/op with scratch, want 0", allocs)
	}
}

// refQRLS is the row-major Householder QR the ridge fits used before the
// column kernel: every reflection is applied across all later columns of
// every row in one pass. The shared-prefix forward selection and the column
// qrLS must reproduce its results bit for bit.
func refQRLS(a [][]float64, b []float64, n int) (x []float64, r [][]float64, err error) {
	m := len(a)
	if m < n || len(b) != m {
		return nil, nil, errors.New("mlfit: bad least-squares dimensions")
	}
	rdiag := make([]float64, n)
	for k := 0; k < n; k++ {
		nrm := 0.0
		for i := k; i < m; i++ {
			nrm = math.Hypot(nrm, a[i][k])
		}
		if nrm != 0 {
			if a[k][k] < 0 {
				nrm = -nrm
			}
			for i := k; i < m; i++ {
				a[i][k] /= nrm
			}
			a[k][k] += 1
			for j := k + 1; j < n; j++ {
				s := 0.0
				for i := k; i < m; i++ {
					s += a[i][k] * a[i][j]
				}
				s = -s / a[k][k]
				for i := k; i < m; i++ {
					a[i][j] += s * a[i][k]
				}
			}
			s := 0.0
			for i := k; i < m; i++ {
				s += a[i][k] * b[i]
			}
			s = -s / a[k][k]
			for i := k; i < m; i++ {
				b[i] += s * a[i][k]
			}
		}
		rdiag[k] = -nrm
	}
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
	if rmin == 0 || rmax/rmin > condLimit {
		return nil, nil, errors.New("mlfit: singular system")
	}
	x = make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for j := i + 1; j < n; j++ {
			s -= a[i][j] * x[j]
		}
		x[i] = s / rdiag[i]
	}
	r = make([][]float64, n)
	for i := range r {
		r[i] = make([]float64, n)
		r[i][i] = rdiag[i]
		for j := i + 1; j < n; j++ {
			r[i][j] = a[i][j]
		}
	}
	return x, r, nil
}

// refBuildZ renders the standardized design row by row, ones column last.
func refBuildZ(X [][]float64, cols []int, mean, scale []float64) [][]float64 {
	dim := len(cols) + 1
	Z := make([][]float64, len(X))
	for s, row := range X {
		z := make([]float64, dim)
		for j, c := range cols {
			z[j] = (row[c] - mean[j]) / scale[j]
		}
		z[dim-1] = 1
		Z[s] = z
	}
	return Z
}

// refRidgeLOO is the row-major ridge fit plus hat-diagonal LOO pass.
func refRidgeLOO(Z [][]float64, y []float64, lambda float64, wantR bool) (coef []float64, r [][]float64, looRMSE float64, err error) {
	n := len(Z)
	if n == 0 {
		return nil, nil, 0, errors.New("mlfit: no samples")
	}
	dim := len(Z[0])
	a := make([][]float64, n+dim)
	b := make([]float64, n+dim)
	for i, z := range Z {
		a[i] = append([]float64(nil), z...)
		b[i] = y[i]
	}
	for j := 0; j < dim; j++ {
		row := make([]float64, dim)
		l := lambda
		if j == dim-1 {
			l = 0
		}
		row[j] = math.Sqrt(l + ridgeJitter)
		a[n+j] = row
	}
	coef, r, err = refQRLS(a, b, dim)
	if err != nil {
		return nil, nil, 0, err
	}
	u := make([]float64, dim)
	var sse float64
	for i, z := range Z {
		for p := 0; p < dim; p++ {
			s := z[p]
			for q := 0; q < p; q++ {
				s -= r[q][p] * u[q]
			}
			u[p] = s / r[p][p]
		}
		var h, pred float64
		for p := 0; p < dim; p++ {
			h += u[p] * u[p]
			pred += coef[p] * z[p]
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

// refFitRidgeModel is fitRidgeModel on the row-major path.
func refFitRidgeModel(X [][]float64, y []float64, cols []int, names []string, lambdas []float64) (*RidgeModel, error) {
	if len(lambdas) == 0 {
		lambdas = DefaultLambdas
	}
	mean, scale := standardize(X, cols)
	Z := refBuildZ(X, cols, mean, scale)
	var (
		best     *RidgeModel
		bestRMSE = math.Inf(1)
	)
	for _, l := range lambdas {
		coef, r, rmse, err := refRidgeLOO(Z, y, l, true)
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

// refCandidateSSE scores one forward-selection candidate set the way the
// selection loop did before the shared prefix: build its design, run the
// full ridge fit (LOO pass included, then discarded) and sum the training
// squared error.
func refCandidateSSE(X [][]float64, y []float64, fullMean, fullScale []float64, cand []int, lambda float64) (float64, error) {
	mean := make([]float64, len(cand))
	scale := make([]float64, len(cand))
	for j, c := range cand {
		mean[j], scale[j] = fullMean[c], fullScale[c]
	}
	Z := refBuildZ(X, cand, mean, scale)
	coef, _, _, err := refRidgeLOO(Z, y, lambda, false)
	if err != nil {
		return 0, err
	}
	var sse float64
	for i, z := range Z {
		var pred float64
		for p, c := range coef {
			pred += c * z[p]
		}
		d := y[i] - pred
		sse += d * d
	}
	return sse, nil
}

// refForwardSelectRidgeCV is ForwardSelectRidgeCV with every candidate
// factored from scratch.
func refForwardSelectRidgeCV(X [][]float64, y []float64, names []string, maxFeatures int, lambdas []float64) (*RidgeModel, error) {
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
	if lim := n/3 + 1; maxFeatures > lim {
		maxFeatures = lim
	}
	lambdaMid := lambdas[len(lambdas)/2]
	allCols := make([]int, nf)
	for i := range allCols {
		allCols[i] = i
	}
	fullMean, fullScale := standardize(X, allCols)
	var (
		chosen   []int
		used     = make([]bool, nf)
		bestLOO  = math.Inf(1)
		haveBest = false
	)
	for len(chosen) < maxFeatures {
		stepErr := math.Inf(1)
		stepF := -1
		cand := append(append([]int(nil), chosen...), -1)
		for f := 0; f < nf; f++ {
			if used[f] {
				continue
			}
			cand[len(cand)-1] = f
			sse, err := refCandidateSSE(X, y, fullMean, fullScale, cand, lambdaMid)
			if err != nil {
				continue
			}
			if sse < stepErr {
				stepErr, stepF = sse, f
			}
		}
		if stepF < 0 {
			break
		}
		cand[len(cand)-1] = stepF
		mean := make([]float64, len(cand))
		scale := make([]float64, len(cand))
		for j, c := range cand {
			mean[j], scale[j] = fullMean[c], fullScale[c]
		}
		_, _, loo, err := refRidgeLOO(refBuildZ(X, cand, mean, scale), y, lambdaMid, false)
		if err != nil {
			break
		}
		if haveBest && loo >= bestLOO*(1-selectMinGain) {
			break
		}
		bestLOO, haveBest = loo, true
		chosen = append(chosen, stepF)
		used[stepF] = true
	}
	if len(chosen) == 0 {
		return nil, errors.New("mlfit: forward selection found no usable feature")
	}
	return refFitRidgeModel(X, y, chosen, names, lambdas)
}

// sameBits reports the first float64 slice entry whose bits differ.
func sameBits(name string, got, want []float64) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%s: %d entries, want %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Sprintf("%s[%d] = %v, want %v", name, i, got[i], want[i])
		}
	}
	return ""
}

// sameRidgeModel compares every fitted field bit for bit; "" means equal.
func sameRidgeModel(got *RidgeModel, gotErr error, want *RidgeModel, wantErr error) string {
	if errString(gotErr) != errString(wantErr) {
		return fmt.Sprintf("error %q, want %q", errString(gotErr), errString(wantErr))
	}
	if gotErr != nil {
		return ""
	}
	if !reflect.DeepEqual(got.Features, want.Features) || !reflect.DeepEqual(got.Names, want.Names) || got.N != want.N {
		return fmt.Sprintf("features %v (n %d), want %v (n %d)", got.Features, got.N, want.Features, want.N)
	}
	if d := sameBits("mean", got.Mean, want.Mean); d != "" {
		return d
	}
	if d := sameBits("scale", got.Scale, want.Scale); d != "" {
		return d
	}
	if d := sameBits("coef", got.Coef, want.Coef); d != "" {
		return d
	}
	if d := sameBits("scalars [intercept lambda sigma2 loo_rmse]",
		[]float64{got.Intercept, got.Lambda, got.Sigma2, got.LOORMSE},
		[]float64{want.Intercept, want.Lambda, want.Sigma2, want.LOORMSE}); d != "" {
		return d
	}
	if len(got.R) != len(want.R) {
		return fmt.Sprintf("R has %d rows, want %d", len(got.R), len(want.R))
	}
	for i := range got.R {
		if d := sameBits(fmt.Sprintf("R[%d]", i), got.R[i], want.R[i]); d != "" {
			return d
		}
	}
	return ""
}

// surrogateShapedProblem draws a matrix shaped like a featurized surrogate
// corpus: per-row workload one-hots, a per-workload mix profile (constant
// within a workload), configuration parameters from small discrete grids
// (many of them log2 sizes, some booleans), SMT context columns and
// rate-times-resource interactions, with a log-CPI-like target.
func surrogateShapedProblem(seed uint64, n int) ([][]float64, []float64) {
	const (
		wls     = 20
		mix     = 20
		configs = 48
		inter   = 11
	)
	rng := &testRNG{state: seed}
	profiles := make([][]float64, wls)
	for w := range profiles {
		p := make([]float64, mix)
		for j := range p {
			p[j] = rng.float() * rng.float()
		}
		profiles[w] = p
	}
	grids := make([][]float64, configs)
	for j := range grids {
		g := make([]float64, 1+j%4)
		for v := range g {
			switch j % 3 {
			case 0:
				g[v] = float64(10 + v) // log2 size
			case 1:
				g[v] = float64(v % 2) // boolean
			default:
				g[v] = float64(1 + 2*v) // width or latency
			}
		}
		grids[j] = g
	}
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		w := i % wls
		row := make([]float64, 0, wls+mix+configs+4+inter)
		for v := 0; v < wls; v++ {
			row = append(row, b2f(v == w))
		}
		row = append(row, profiles[w]...)
		cfg := make([]float64, configs)
		for j, g := range grids {
			cfg[j] = g[rng.next()%uint64(len(g))]
		}
		row = append(row, cfg...)
		smt := float64(int(1) << (rng.next() % 4))
		row = append(row, smt, 1/smt, 15.6, 0.04)
		for j := 0; j < inter; j++ {
			row = append(row, profiles[w][j]*cfg[3*j+2])
		}
		X[i] = row
		y[i] = math.Log(0.4 + profiles[w][0]*cfg[2] + 0.3*profiles[w][1]*smt/cfg[3] + 0.02*rng.float())
	}
	return X, y
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// ridgeProblems are the shapes the shared-prefix selection must reproduce
// bit for bit: the surrogate's own matrix and the numerically awkward
// columns forward selection meets in it.
func ridgeProblems() []struct {
	name    string
	X       [][]float64
	y       []float64
	max     int
	lambdas []float64
} {
	type problem = struct {
		name    string
		X       [][]float64
		y       []float64
		max     int
		lambdas []float64
	}
	var ps []problem
	X, y := surrogateShapedProblem(1, 180)
	ps = append(ps, problem{"surrogate-shaped", X, y, 16, nil})
	X, y = surrogateShapedProblem(2, 40)
	ps = append(ps, problem{"surrogate-shaped-per-workload", X, y, 8, nil})

	rng := &testRNG{state: 23}
	random := func(n, nf int) ([][]float64, []float64) {
		X := make([][]float64, n)
		y := make([]float64, n)
		for i := range X {
			row := make([]float64, nf)
			for j := range row {
				row[j] = rng.float()*4 - 1
			}
			X[i] = row
			y[i] = 2*row[0] - row[1] + 0.5*row[nf-1] + 0.1*rng.float()
		}
		return X, y
	}
	X, y = random(60, 8)
	for i := range X {
		X[i][3] = X[i][0] // duplicated column
	}
	ps = append(ps, problem{"duplicated-column", X, y, 6, nil})
	X, y = random(60, 8)
	for i := range X {
		X[i][2] = 7 // constant column
	}
	ps = append(ps, problem{"constant-column", X, y, 6, nil})
	X, y = random(60, 8)
	for i := range X {
		X[i][4] = X[i][0] + 1e-9*rng.float() // near-collinear
		X[i][5] = X[i][1] * (1 + 1e-12*rng.float())
	}
	ps = append(ps, problem{"near-collinear", X, y, 6, []float64{0}})
	// A lambda of -ridgeJitter cancels the jitter floor, so the duplicated
	// and constant candidates have no ridge entry and hit the singular check.
	X, y = random(60, 8)
	for i := range X {
		X[i][3] = X[i][0]
		X[i][6] = 7
	}
	ps = append(ps, problem{"singular-candidates", X, y, 6, []float64{-ridgeJitter}})
	// Every column carries signal, so selection runs into the n/3+1 cap
	// (5 of 10 features at 12 rows) before the LOO gain runs out.
	X, _ = random(12, 10)
	y = make([]float64, len(X))
	for i, row := range X {
		for j, v := range row {
			y[i] += float64(10-j) * v
		}
	}
	ps = append(ps, problem{"max-features-capped", X, y, 16, []float64{1e-6}})
	X, _ = random(50, 6)
	for i := range X {
		for j := range X[i] {
			X[i][j] = math.Abs(X[i][j]) + 0.1
		}
	}
	for j := range X[0] {
		X[0][j] = -5 // leading entry the column minimum: the sign branch
	}
	y = make([]float64, len(X))
	for i, row := range X {
		y[i] = 2*row[0] - row[1] + 0.5*row[5] + 0.1*rng.float()
	}
	ps = append(ps, problem{"negative-leading-entry", X, y, 6, nil})
	return ps
}

// TestForwardSelectRidgeCVBitIdenticalToPerCandidateQR checks the
// shared-prefix selection against the per-candidate full factorization: the
// chosen model must match in every fitted field, bit for bit.
func TestForwardSelectRidgeCVBitIdenticalToPerCandidateQR(t *testing.T) {
	for _, p := range ridgeProblems() {
		got, gerr := ForwardSelectRidgeCV(p.X, p.y, nil, p.max, p.lambdas)
		want, werr := refForwardSelectRidgeCV(p.X, p.y, nil, p.max, p.lambdas)
		if d := sameRidgeModel(got, gerr, want, werr); d != "" {
			t.Errorf("%s: %s", p.name, d)
		}
		if gerr == nil && p.name == "max-features-capped" && len(got.Features) != len(p.X)/3+1 {
			t.Errorf("%s: %d features, want the cap %d", p.name, len(got.Features), len(p.X)/3+1)
		}
	}
}

// TestSelectStepScoresMatchPerCandidateQR compares every candidate's score,
// not just the winner: for each prefix the selection grows through, the
// shared-prefix SSE (or singular verdict) must equal the from-scratch one.
func TestSelectStepScoresMatchPerCandidateQR(t *testing.T) {
	singular := 0
	for _, p := range ridgeProblems() {
		lambdas := p.lambdas
		if len(lambdas) == 0 {
			lambdas = DefaultLambdas
		}
		lambda := lambdas[len(lambdas)/2]
		nf := len(p.X[0])
		all := make([]int, nf)
		for i := range all {
			all[i] = i
		}
		mean, scale := standardize(p.X, all)
		z := buildZ(p.X, all, mean, scale)
		m, err := refForwardSelectRidgeCV(p.X, p.y, nil, p.max, p.lambdas)
		var path []int
		if err == nil {
			path = m.Features
		}
		for k := 0; k <= len(path); k++ {
			chosen := path[:k]
			st := newSelectStep(z, p.y, chosen, lambda)
			for f := 0; f < nf; f++ {
				got, ok := st.score(f)
				want, werr := refCandidateSSE(p.X, p.y, mean, scale, append(append([]int(nil), chosen...), f), lambda)
				if ok != (werr == nil) {
					t.Fatalf("%s prefix %v candidate %d: ok=%v, reference error %v", p.name, chosen, f, ok, werr)
				}
				if !ok {
					singular++
					continue
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s prefix %v candidate %d: sse %v, want %v", p.name, chosen, f, got, want)
				}
			}
		}
	}
	if singular == 0 {
		t.Error("no candidate hit the singular check; the singular-candidates problem lost its point")
	}
}

// TestSelectStepScoreZeroAlloc guards the per-candidate cost: scoring reuses
// the step's working space.
func TestSelectStepScoreZeroAlloc(t *testing.T) {
	X, y := surrogateShapedProblem(1, 180)
	all := make([]int, len(X[0]))
	for i := range all {
		all[i] = i
	}
	mean, scale := standardize(X, all)
	st := newSelectStep(buildZ(X, all, mean, scale), y, []int{40, 90, 7}, DefaultLambdas[3])
	allocs := testing.AllocsPerRun(50, func() {
		st.score(60)
	})
	if allocs != 0 {
		t.Fatalf("scoring a candidate allocates %v allocs/op, want 0", allocs)
	}
}

// BenchmarkForwardSelectRidgeCV times one surrogate-grade forward selection
// on the shape surrogate.Train fits per target: 180 rows of the 103-wide
// feature row, up to 16 features.
func BenchmarkForwardSelectRidgeCV(b *testing.B) {
	X, y := surrogateShapedProblem(1, 180)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := ForwardSelectRidgeCV(X, y, nil, 16, nil)
		if err != nil {
			b.Fatal(err)
		}
		ridgeSink = m
	}
}

// ridgeSink keeps BenchmarkForwardSelectRidgeCV's result live.
var ridgeSink *RidgeModel
