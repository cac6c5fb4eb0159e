package sweep

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"power10sim/internal/experiments"
	"power10sim/internal/runner"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestQuickSweepGolden pins the whole `p10bench -quick` stdout: every
// experiment table plus the closing runner summary. Any change that moves an
// output bit fails here with the first differing line; an intentional
// recalibration regenerates the golden with -update and says so in review.
func TestQuickSweepGolden(t *testing.T) {
	var out bytes.Buffer
	pool := runner.New(0)
	oc := Run(context.Background(), &out, Catalog(), "",
		experiments.Options{Quick: true, Runner: pool}, nil, nil)
	if len(oc.Failed) > 0 {
		t.Fatalf("experiments failed: %v", oc.Failed)
	}
	Summary(&out, pool.Stats())

	golden := filepath.Join("testdata", "quick.golden")
	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if line, got, exp, ok := firstDiff(out.Bytes(), want); !ok {
		t.Fatalf("quick sweep stdout differs from %s at line %d:\n got: %q\nwant: %q",
			golden, line, got, exp)
	}
}

// firstDiff compares two outputs line by line and reports the first line
// (1-based) where they differ; ok is true when they are byte-identical.
func firstDiff(got, want []byte) (line int, g, w string, ok bool) {
	if bytes.Equal(got, want) {
		return 0, "", "", true
	}
	gl := bytes.SplitAfter(got, []byte("\n"))
	wl := bytes.SplitAfter(want, []byte("\n"))
	for i := 0; ; i++ {
		var a, b []byte
		if i < len(gl) {
			a = gl[i]
		}
		if i < len(wl) {
			b = wl[i]
		}
		if !bytes.Equal(a, b) {
			return i + 1, string(a), string(b), false
		}
	}
}

func TestFirstDiff(t *testing.T) {
	if _, _, _, ok := firstDiff([]byte("a\nb\n"), []byte("a\nb\n")); !ok {
		t.Fatal("identical outputs reported as different")
	}
	cases := []struct {
		got, want string
		line      int
	}{
		{"a\nb\n", "a\nc\n", 2},
		{"a\n", "a\nb\n", 2},  // got is a prefix
		{"a\nb\n", "a\n", 2},  // want is a prefix
		{"a\nb", "a\nb\n", 2}, // missing final newline
		{"x\nb\n", "a\nb\n", 1},
	}
	for _, c := range cases {
		line, _, _, ok := firstDiff([]byte(c.got), []byte(c.want))
		if ok || line != c.line {
			t.Errorf("firstDiff(%q, %q) = line %d ok=%v, want line %d", c.got, c.want, line, ok, c.line)
		}
	}
}

// TestReportExitStatus: the post-sweep report exits 0 only for a clean,
// complete sweep, and names every reason it does not.
func TestReportExitStatus(t *testing.T) {
	pool := runner.New(1)
	var stdout, stderr bytes.Buffer
	if code := (Outcome{Ran: 1}).Report(&stdout, &stderr, pool, ""); code != 0 {
		t.Errorf("clean sweep exit %d, stderr:\n%s", code, stderr.String())
	}
	if !strings.HasPrefix(stdout.String(), "runner: 0 simulation requests") {
		t.Errorf("stdout summary = %q", stdout.String())
	}
	failures := new(experiments.FailureLog)
	failures.Add("fig5", errors.New("boom"))
	for _, o := range []Outcome{
		{Ran: 1, failures: failures},
		{Ran: 1, Failed: []string{"fig5"}},
		{Interrupted: true},
	} {
		stderr.Reset()
		if code := o.Report(&stdout, &stderr, pool, "cache"); code != 1 {
			t.Errorf("%+v: exit %d, want 1", o, code)
		}
		if !strings.Contains(stderr.String(), "diskcache: ") {
			t.Errorf("%+v: no disk-cache line with a cache dir:\n%s", o, stderr.String())
		}
	}
	if !strings.Contains(stderr.String(), "sweep interrupted") {
		t.Errorf("interrupted sweep not reported:\n%s", stderr.String())
	}
}
