package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"power10sim/internal/power"
	"power10sim/internal/uarch"
	"power10sim/internal/workloads"
)

// TestReportGoldens pins the full-mode stdout report of one default-budget
// run per workload family on POWER10, plus one SMT4 run, against committed
// goldens. The SMT4 case's threads share one functional execution, so it
// pins that path outside the sweep too.
func TestReportGoldens(t *testing.T) {
	cases := []struct {
		workload string
		smt      int
	}{
		{"intcompute", 1},   // specint
		{"dgemm-mma", 1},    // kernel
		{"resnet50-mma", 1}, // ai
		{"stressmark", 1},   // synthetic
		{"compress", 4},
	}
	cat := workloads.Catalog()
	cfg := uarch.ConfigByName("POWER10")
	for _, c := range cases {
		name := fmt.Sprintf("%s.smt%d", c.workload, c.smt)
		t.Run(name, func(t *testing.T) {
			w := cat[c.workload]
			res, err := simulate(cfg, w, c.smt, w.Budget)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			writeReport(&got, w, cfg, c.smt, &res.Activity, power.NewModel(cfg).Report(&res.Activity))
			want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("report differs from testdata/%s.golden\n--- got ---\n%s--- want ---\n%s",
					name, got.Bytes(), want)
			}
		})
	}
}
