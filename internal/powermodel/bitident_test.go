package powermodel

import (
	"errors"
	"math"
	"testing"

	"power10sim/internal/mlfit"
	"power10sim/internal/power"
)

// refForwardSelect is a greedy selection run from scratch for one budget,
// assembling the normal equations from the samples for every candidate fit.
// The shared path and Gram must reproduce it bit for bit.
func refForwardSelect(X [][]float64, y []float64, maxFeatures int, opt mlfit.Options) (*mlfit.LinearModel, error) {
	nf := len(X[0])
	maxFeatures = min(maxFeatures, nf)
	var chosen []int
	used := make([]bool, nf)
	var best *mlfit.LinearModel
	bestErr := math.Inf(1)
	for len(chosen) < maxFeatures {
		stepBestErr, stepBestF := math.Inf(1), -1
		var stepBestModel *mlfit.LinearModel
		for f := 0; f < nf; f++ {
			if used[f] {
				continue
			}
			m, err := mlfit.FitColumns(X, y, append(append([]int{}, chosen...), f), opt)
			if err != nil {
				continue
			}
			if e := mlfit.MeanAbsPctError(m, X, y); e < stepBestErr {
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
		return nil, errors.New("no usable feature")
	}
	return best, nil
}

// refErrorCurve is the per-budget Fig. 11 loop: one selection per budget.
func refErrorCurve(ds *Dataset, inputCounts []int, opt mlfit.Options) (map[int]float64, error) {
	out := map[int]float64{}
	for _, n := range inputCounts {
		m, err := refForwardSelect(ds.X(), ds.ActiveY(), n, opt)
		if err != nil {
			return nil, err
		}
		out[n] = mlfit.MeanAbsPctError(m, ds.X(), ds.ActiveY())
	}
	return out, nil
}

// sameBits reports whether two models are identical to the bit.
func sameBits(a, b *mlfit.LinearModel) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if len(a.Features) != len(b.Features) || len(a.Coef) != len(b.Coef) ||
		math.Float64bits(a.Intercept) != math.Float64bits(b.Intercept) {
		return false
	}
	for i := range a.Features {
		if a.Features[i] != b.Features[i] || math.Float64bits(a.Coef[i]) != math.Float64bits(b.Coef[i]) {
			return false
		}
	}
	return true
}

func TestErrorCurvesBitIdenticalToPerBudgetSelection(t *testing.T) {
	ds := smallDataset(t)
	inputs := []int{1, 2, 4, 8, 16, 24}
	// The four Fig. 11 constraint sets.
	constraints := map[string]mlfit.Options{
		"ols":          {Intercept: true},
		"ridge":        {Intercept: true, Ridge: 0.5},
		"non-negative": {Intercept: true, NonNegative: true},
		"no-intercept": {},
	}
	got, err := ErrorCurves(ds, inputs, constraints)
	if err != nil {
		t.Fatal(err)
	}
	for name, opt := range constraints {
		want, err := refErrorCurve(ds, inputs, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range inputs {
			if math.Float64bits(got[name][n]) != math.Float64bits(want[n]) {
				t.Errorf("%s at %d inputs: %v, per-budget selection %v", name, n, got[name][n], want[n])
			}
		}
	}
}

func TestFitBottomUpBitIdenticalToPerComponentSelection(t *testing.T) {
	ds := smallDataset(t)
	opt := mlfit.Options{Intercept: true}
	bu, err := FitBottomUp(ds, 3, opt)
	if err != nil {
		t.Fatal(err)
	}
	fitted := 0
	for ci := range power.ComponentNames {
		y := ds.componentY(ci)
		var want *mlfit.LinearModel
		for _, v := range y {
			if v != 0 {
				if want, err = refForwardSelect(ds.X(), y, 3, opt); err != nil {
					t.Fatal(err)
				}
				fitted++
				break
			}
		}
		if !sameBits(bu.Components[ci], want) {
			t.Errorf("component %s differs from its per-component selection", power.ComponentNames[ci])
		}
	}
	if fitted == 0 {
		t.Fatal("no component had a nonzero target")
	}
}
