package main

import (
	"math"
	"strings"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending: tailOf must sort
	}
	return xs
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{0, 1, 10, 19} {
		if tl, ok := tailOf(seq(n)); ok {
			t.Errorf("%d samples: got tail %+v, want none", n, tl)
		}
	}
	for _, tc := range []struct {
		n          int
		percentile float64
		value      float64
		beyond     int
	}{
		{20, 50, 10, 10},
		{39, 50, 20, 19},
		{40, 75, 30, 10},
		{100, 90, 90, 10},
		{199, 90, 180, 19},
		{200, 95, 190, 10},
		{1000, 99, 990, 10},
		{10000, 99.9, 9990, 10},
	} {
		tl, ok := tailOf(seq(tc.n))
		want := tail{Percentile: tc.percentile, Value: tc.value, Beyond: tc.beyond, Samples: tc.n}
		if !ok || tl != want {
			t.Errorf("%d samples: got %+v (ok %v), want %+v", tc.n, tl, ok, want)
		}
	}
}

const sweepStdout = `=== Section II-B headline: 1.3x perf at 0.5x power (2.6x perf/W) ===
metric                          measured  paper
------------------------------  --------  -----
SPECint speedup (ST geomean)    1.350     ~1.3x
core power ratio P10/P9         0.487     ~0.5x
core perf/W gain                2.52      2.6x 

runner: 273 simulation requests, 201 unique runs, 72 cache hits (26.4%)
`

func TestParsePerfW(t *testing.T) {
	got, err := parsePerfW([]byte(sweepStdout))
	if err != nil || got != 2.52 {
		t.Fatalf("parsePerfW = %v, %v; want 2.52", got, err)
	}
	if e := perfWErrPct(got); math.Abs(e-100*0.08/2.6) > 1e-12 {
		t.Errorf("perfWErrPct(2.52) = %v", e)
	}
	if _, err := parsePerfW([]byte("no headline here\n")); err == nil {
		t.Error("missing headline row parsed")
	}
	if _, err := parsePerfW([]byte("core perf/W gain   n/a   2.6x\n")); err == nil {
		t.Error("non-numeric headline value parsed")
	}
}

func TestParseSummary(t *testing.T) {
	got, err := parseSummary([]byte(sweepStdout))
	if err != nil || got != (summary{Requests: 273, Unique: 201, Hits: 72}) {
		t.Fatalf("parseSummary = %+v, %v", got, err)
	}
	for _, bad := range []string{
		"no summary\n",
		"runner: 273 simulation requests, 200 unique runs, 72 cache hits (26.4%)\n",
		"runner: lots of simulation requests\n",
	} {
		if s, err := parseSummary([]byte(bad)); err == nil {
			t.Errorf("parseSummary(%q) = %+v, want an error", bad, s)
		}
	}
}

const validateStdout = `corpus: 297 records scanned, 201 trainable
skipped: 0 failed, 0 upset, 0 predicted, 60 duplicate, 0 unknown-config, 36 unknown-workload, 0 degenerate
split: 148 train, 51 test, 2 skipped-vocab (holdout 25%, seed 1)
served: 11 of 51 held-out rows (21.6%) clear the 8.0% confidence gate; the rest fall through to real simulation
target              mape%   rms_log   worst% served_mape% served_worst%
cpi                  7.94    0.1377    61.49        0.36        1.24
power                5.77    0.0959    26.41        3.95       11.12
`

func TestParseValidate(t *testing.T) {
	v, err := parseValidate([]byte(validateStdout))
	if err != nil || v != (validation{Served: 11, Test: 51, CPIMAPE: 7.94}) {
		t.Fatalf("parseValidate = %+v, %v", v, err)
	}
	if f := v.servedFrac(); f != 11.0/51 {
		t.Errorf("servedFrac = %v", f)
	}
	noCPI := strings.Replace(validateStdout, "cpi ", "ipc ", 1)
	noServed := strings.Replace(validateStdout, "served: ", "kept: ", 1)
	tooMany := strings.Replace(validateStdout, "served: 11 of 51", "served: 52 of 51", 1)
	for _, bad := range []string{noCPI, noServed, tooMany} {
		if v, err := parseValidate([]byte(bad)); err == nil {
			t.Errorf("parsed %+v from malformed validate output", v)
		}
	}
}
