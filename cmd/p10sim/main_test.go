package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"power10sim/internal/fabric"
	"power10sim/internal/power"
	"power10sim/internal/runner"
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

// TestLedgerKeyMatchesFabricSubmit pins one request constructor: the ledger
// key of a p10sim run equals the key the coordinator's submit API assigns to
// the same (config, workload, smt, budget) point, so both land on the same
// cache entry and ledger history.
func TestLedgerKeyMatchesFabricSubmit(t *testing.T) {
	coord := fabric.NewCoordinator(fabric.CoordinatorOptions{})
	defer coord.Close()
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	for _, c := range []fabric.SubmitRequest{
		{Config: "POWER10", Workload: "compress", SMT: 1},
		{Config: "POWER9", Workload: "daxpy", SMT: 4, Budget: 20000},
	} {
		body, _ := json.Marshal(c)
		resp, err := http.Post(srv.URL+fabric.PathSubmit, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var sr fabric.SubmitResponse
		err = json.NewDecoder(resp.Body).Decode(&sr)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%+v: submit status %d, decode %v", c, resp.StatusCode, err)
		}
		req, err := runner.ResolveFull(c.Config, c.Workload, c.SMT, c.Budget)
		if err != nil {
			t.Fatal(err)
		}
		if key := ledgerRecord(req, 0).Key; key == "" || key != sr.Key {
			t.Errorf("%+v: p10sim ledger key %q, coordinator key %q", c, key, sr.Key)
		}
	}
}

// simulate runs p10sim's full-mode simulation of smt copies of w, each bud
// instructions long.
func simulate(cfg *uarch.Config, w *workloads.Workload, smt int, bud uint64) (*uarch.Result, error) {
	return runner.FullRequest(cfg, w, smt, bud).Simulate()
}
