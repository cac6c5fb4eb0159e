package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// median returns the median of xs (the mean of the middle two for an even
// count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail is the highest reported percentile with at least ten samples beyond it.
type tail struct {
	Percentile float64 `json:"percentile"`
	Value      float64 `json:"value"`
	Beyond     int     `json:"beyond"`
	Samples    int     `json:"samples"`
}

// tailPercentiles are the candidates tailOf chooses from, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tailOf returns the highest percentile of tailPercentiles that has at least
// ten samples beyond it, taking the nearest-rank value. ok is false when the
// run is too short to have one (fewer than 20 samples).
func tailOf(xs []float64) (tail, bool) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	for _, p := range tailPercentiles {
		rank := int(math.Ceil(p/100*float64(n) - 1e-9)) // guard float error in p/100*n
		if rank < 1 || n-rank < 10 {
			continue
		}
		return tail{Percentile: p, Value: s[rank-1], Beyond: n - rank, Samples: n}, true
	}
	return tail{}, false
}

// paperPerfW is the Section II-B headline core perf/W gain the paper reports.
const paperPerfW = 2.6

// parsePerfW reads the measured core perf/W gain from the headline table
// row of a quick sweep's stdout ("core perf/W gain   2.52   2.6x").
func parsePerfW(stdout []byte) (float64, error) {
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "core perf/W gain")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) < 1 {
			break
		}
		return strconv.ParseFloat(f[0], 64)
	}
	return 0, fmt.Errorf("no headline perf/W row in stdout")
}

// perfWErrPct is |measured - 2.6| / 2.6 as a percentage.
func perfWErrPct(measured float64) float64 {
	return 100 * math.Abs(measured-paperPerfW) / paperPerfW
}

// summary is the runner line that closes a sweep's stdout.
type summary struct {
	Requests int `json:"requests"`
	Unique   int `json:"unique_runs"`
	Hits     int `json:"cache_hits"`
}

// parseSummary reads "runner: N simulation requests, M unique runs, H cache
// hits (P%)" from anywhere in stdout.
func parseSummary(stdout []byte) (summary, error) {
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "runner: ") {
			continue
		}
		var s summary
		var pct float64
		if _, err := fmt.Sscanf(line, "runner: %d simulation requests, %d unique runs, %d cache hits (%f%%)",
			&s.Requests, &s.Unique, &s.Hits, &pct); err != nil {
			return summary{}, fmt.Errorf("runner summary %q: %w", line, err)
		}
		if s.Unique+s.Hits != s.Requests {
			return summary{}, fmt.Errorf("runner summary %q: unique + hits != requests", line)
		}
		return s, nil
	}
	return summary{}, fmt.Errorf("no runner summary line in stdout")
}

// validation is what the benchmark reads from `p10explore -op validate`.
type validation struct {
	Served, Test int
	// CPIMAPE is the held-out CPI MAPE over all test rows, in percent, as
	// printed (two decimals).
	CPIMAPE float64
}

// servedFrac is the share of held-out rows that clear the confidence gate.
func (v validation) servedFrac() float64 {
	if v.Test == 0 {
		return 0
	}
	return float64(v.Served) / float64(v.Test)
}

// parseValidate reads the served line and the cpi row of the validate table.
func parseValidate(stdout []byte) (validation, error) {
	var v validation
	var served, cpi bool
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "served: "):
			if _, err := fmt.Sscanf(line, "served: %d of %d", &v.Served, &v.Test); err != nil {
				return validation{}, fmt.Errorf("served line %q: %w", line, err)
			}
			served = true
		case strings.HasPrefix(line, "cpi "):
			f := strings.Fields(line)
			if len(f) < 2 {
				return validation{}, fmt.Errorf("cpi row %q: too few columns", line)
			}
			x, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return validation{}, fmt.Errorf("cpi row %q: %w", line, err)
			}
			v.CPIMAPE, cpi = x, true
		}
	}
	if !served || !cpi {
		return validation{}, fmt.Errorf("validate output lacks the served line or the cpi row")
	}
	if v.Test <= 0 || v.Served < 0 || v.Served > v.Test {
		return validation{}, fmt.Errorf("validate output: served %d of %d", v.Served, v.Test)
	}
	return v, nil
}
