package surrogate

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"power10sim/internal/isa"
	"power10sim/internal/runner"
	"power10sim/internal/uarch"
	"power10sim/internal/workloads"
)

// FuzzLoadModel feeds arbitrary bytes to the p10surrogate-v2 model decoder.
// Load must either refuse the input or return a model that is safe to serve:
// Predict does not panic for any workload in its vocabulary, and the runner
// tier built on it only ever serves finite, positive CPI and power. The
// committed corpus under testdata/fuzz/FuzzLoadModel holds a small trained
// model and the malformed shapes found so far.
func FuzzLoadModel(f *testing.F) {
	f.Add([]byte(`{"schema":"other-v1"}`))
	f.Add([]byte(`{not json`))
	profile := synthProfiles()["synth-mem"]
	prog := isa.NewBuilder("fuzz").Halt().MustBuild()
	cfgs := []*uarch.Config{uarch.POWER9(), uarch.POWER10(), Space(1, 7)[0].Cfg}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "model.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := Load(path)
		if err != nil {
			return
		}
		// A wide-open gate: every finite prediction is served, so every
		// served result is checked.
		tier := NewTier(m, math.MaxFloat64)
		tier.profiles.Store(prog, profile)
		var buf PredictBuf
		for _, w := range m.Workloads {
			for _, cfg := range cfgs {
				for _, smt := range []int{1, 4} {
					p := m.Predict(&buf, cfg, w, profile, smt, 50000, 2000)
					res, ok := tier.Predict(runner.Request{
						Cfg: cfg, W: &workloads.Workload{Name: w, Prog: prog},
						SMT: smt, Budget: 50000, Warmup: 2000,
					})
					if !ok {
						continue
					}
					cpi := res.Activity.CPI()
					if !(cpi > 0) || math.IsInf(cpi, 0) || !(res.Report.Total > 0) || math.IsInf(res.Report.Total, 0) {
						t.Fatalf("%s on %s smt%d: served CPI %v, power %v", w, cfg.Name, smt, cpi, res.Report.Total)
					}
					// Served cycles are the predicted CPI rounded to a whole cycle.
					if math.Abs(cpi-p.CPI)*float64(res.Activity.Instructions) > 1 {
						t.Fatalf("%s on %s smt%d: served CPI %v, predicted %v", w, cfg.Name, smt, cpi, p.CPI)
					}
				}
			}
		}
	})
}

// TestLoadRejectsMalformedEnvelope is the regression test for a training
// envelope whose bounds disagree in width, on a workload without a residual
// correction: Load accepted it, and Predict for that workload indexed past
// the short bound.
func TestLoadRejectsMalformedEnvelope(t *testing.T) {
	m, err := Train(SyntheticCorpus(40, 3), TrainOptions{MaxFeatures: 3, MaxWlFeatures: 2})
	if err != nil {
		t.Fatal(err)
	}
	w := m.Workloads[0]
	for i := range m.Targets {
		delete(m.Targets[i].PerWorkload, w)
	}
	load := func(box *WlBox) (*Model, error) {
		m.WlBoxes[w] = box
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "model.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return Load(path)
	}
	sub := m.Featurizer().SubWidth()
	good, err := load(&WlBox{Lo: make([]float64, sub), Hi: make([]float64, sub)})
	if err != nil {
		t.Fatalf("uncorrected workload with a well-formed envelope: %v", err)
	}
	good.Predict(nil, uarch.POWER10(), w, synthProfiles()[w], 2, 50000, 2000)
	for name, box := range map[string]*WlBox{
		"short hi": {Lo: make([]float64, sub), Hi: make([]float64, sub-1)},
		"short lo": {Lo: make([]float64, sub-1), Hi: make([]float64, sub)},
		"nil":      nil,
		"empty":    {},
	} {
		if _, err := load(box); err == nil {
			t.Errorf("%s envelope: Load accepted it", name)
		}
	}
}

// TestTierDeclinesUnrepresentableCycles is the regression test for a model
// whose CPI prediction is finite but too large for a cycle count: the tier
// converted it to uint64 unchecked and served a CPI unrelated to the
// prediction. It must decline instead.
func TestTierDeclinesUnrepresentableCycles(t *testing.T) {
	c, w := daxpyCorpus(t, 120)
	m, err := Train(c, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tier := NewTier(m, math.MaxFloat64)
	req := runner.Request{Cfg: uarch.POWER10(), W: w, SMT: 2, Budget: 5000, Warmup: 500}
	if _, ok := tier.Predict(req); !ok {
		t.Fatal("wide-open tier declined an in-vocabulary request")
	}
	m.Targets[tCPI].Model.Intercept += 60 // CPI ~ e^60: finite, no cycle count holds it
	if res, ok := tier.Predict(req); ok {
		t.Fatalf("tier served CPI %v from a CPI prediction of about e^60", res.Activity.CPI())
	}
}
