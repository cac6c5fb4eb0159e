package pmgmt

import (
	"errors"
	"math"
	"testing"

	"power10sim/internal/mlfit"
	"power10sim/internal/powermodel"
)

// refDesignProxy is the strict greedy proxy selection run from scratch for
// one budget, assembling the normal equations from the samples for every
// candidate fit. The shared path must reproduce it bit for bit.
func refDesignProxy(ds *powermodel.Dataset, nCounters int) (*Proxy, error) {
	X, y := ds.X(), ds.ActiveY()
	opt := mlfit.Options{Intercept: true, NonNegative: true, Ridge: 1e-6}
	var chosen []int
	used := make(map[int]bool)
	var best *mlfit.LinearModel
	bestErr := 1e18
	for len(chosen) < nCounters {
		stepF, stepErr := -1, 1e18
		var stepModel *mlfit.LinearModel
		for f := range ds.Names {
			if used[f] || !hardwareImplementable(ds.Names[f]) {
				continue
			}
			cand := append(append([]int{}, chosen...), f)
			m, err := mlfit.FitColumns(X, y, cand, opt)
			if err != nil || len(m.Features) != len(cand) {
				continue
			}
			if e := mlfit.MeanAbsPctError(m, X, y); e < stepErr {
				stepF, stepErr, stepModel = f, e, m
			}
		}
		if stepF < 0 {
			break
		}
		chosen = append(chosen, stepF)
		used[stepF] = true
		if stepErr < bestErr {
			bestErr, best = stepErr, stepModel
		}
	}
	if best == nil {
		return nil, errors.New("no implementable counter set")
	}
	p := &Proxy{Model: best, ActiveError: mlfit.MeanAbsPctError(best, X, y)}
	for _, f := range best.Features {
		p.Counters = append(p.Counters, ds.Names[f])
	}
	return p, nil
}

// sameProxy reports whether two proxies are identical to the bit.
func sameProxy(a, b *Proxy) bool {
	if math.Float64bits(a.ActiveError) != math.Float64bits(b.ActiveError) ||
		math.Float64bits(a.Model.Intercept) != math.Float64bits(b.Model.Intercept) ||
		len(a.Counters) != len(b.Counters) || len(a.Model.Coef) != len(b.Model.Coef) {
		return false
	}
	for i := range a.Counters {
		if a.Counters[i] != b.Counters[i] ||
			math.Float64bits(a.Model.Coef[i]) != math.Float64bits(b.Model.Coef[i]) {
			return false
		}
	}
	return true
}

// The Fig. 15 shape: one selection run to 24 counters serves the whole
// accuracy curve and the 16-counter design.
func TestProxyDesignsBitIdenticalToPerBudgetSelection(t *testing.T) {
	ds := proxyDataset(t)
	designs, err := DesignProxies(ds, 24)
	if err != nil {
		t.Fatal(err)
	}
	budgets := []int{2, 4, 8, 16, 24}
	curve, err := designs.AccuracyCurve(budgets)
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 24; n++ {
		got, err := designs.Proxy(n)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refDesignProxy(ds, n)
		if err != nil {
			t.Fatal(err)
		}
		if !sameProxy(got, want) {
			t.Errorf("%d counters: path design %v (%.4f%%), per-budget design %v (%.4f%%)",
				n, got.Counters, got.ActiveError, want.Counters, want.ActiveError)
		}
		if _, ok := curve[n]; ok && math.Float64bits(curve[n]) != math.Float64bits(want.ActiveError) {
			t.Errorf("accuracy curve at %d counters: %v, per-budget %v", n, curve[n], want.ActiveError)
		}
	}
	got, err := DesignProxy(ds, 16)
	if err != nil {
		t.Fatal(err)
	}
	want, err := refDesignProxy(ds, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !sameProxy(got, want) {
		t.Error("DesignProxy(16) differs from the per-budget selection")
	}
	if _, err := designs.Proxy(25); err == nil {
		t.Error("a design beyond the selection's budget was served")
	}
	if _, err := designs.Proxy(0); err == nil {
		t.Error("a zero-counter design was served")
	}
}
