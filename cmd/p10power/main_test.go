package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"power10sim/internal/runner"
)

// TestReportGolden pins `p10power -workload compress -config POWER10 -smt 1`
// stdout against a committed golden.
func TestReportGolden(t *testing.T) {
	req, err := runner.ResolveFull("POWER10", "compress", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := req.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	writeReport(&got, req, &res.Activity, 15)
	want, err := os.ReadFile(filepath.Join("testdata", "compress.smt1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("report differs from testdata/compress.smt1.golden\n--- got ---\n%s--- want ---\n%s",
			got.Bytes(), want)
	}
}
