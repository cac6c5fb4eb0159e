package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"power10sim/internal/faultinject"
	"power10sim/internal/runner"
	"power10sim/internal/uarch"
)

// TestReportGolden pins the stdout of `p10faults -trials 24` (every other
// flag at its default) against a committed golden, at one and two workers:
// the campaign is deterministic in (seed, trials, workloads) for any -jobs.
func TestReportGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "trials24.golden"))
	if err != nil {
		t.Fatal(err)
	}
	cases, err := faultinject.DefaultCases()
	if err != nil {
		t.Fatal(err)
	}
	for _, jobs := range []int{1, 2} {
		c := &faultinject.Campaign{Cfg: uarch.POWER10(), Cases: cases, SMT: 1,
			Trials: 24, Seed: 42, Consequences: true, Pool: runner.New(jobs)}
		res, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		writeReport(&got, res, c.Consequences)
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("-jobs %d: report differs from testdata/trials24.golden\n--- got ---\n%s--- want ---\n%s",
				jobs, got.Bytes(), want)
		}
	}
}
