package trace_test

import (
	"sort"
	"testing"

	"power10sim/internal/isa"
	"power10sim/internal/trace"
	"power10sim/internal/workloads"
)

// sameAsVMStream checks that every one of smt Threads streams delivers the
// records a fresh VMStream over the same program and budget delivers, record
// for record, and that the streams advance independently.
func sameAsVMStream(t *testing.T, name string, prog *isa.Program, budget uint64, smt int) {
	t.Helper()
	streams := trace.Threads(prog, budget, smt)
	if len(streams) != smt {
		t.Fatalf("%s SMT%d: %d streams", name, smt, len(streams))
	}
	// Drain the threads round-robin, one record each, against one reference.
	ref := trace.NewVMStream(prog, budget)
	for n := 0; ; n++ {
		want, wok := ref.Next()
		for i, s := range streams {
			got, ok := s.Next()
			if ok != wok || got != want {
				t.Fatalf("%s SMT%d thread %d record %d: got %+v (%v), VMStream %+v (%v)",
					name, smt, i, n, got, ok, want, wok)
			}
			if s.Program() != prog {
				t.Fatalf("%s: stream program differs", name)
			}
		}
		if !wok {
			break
		}
	}
	for i, s := range streams {
		if s.Err() != nil {
			t.Errorf("%s SMT%d thread %d: Err %v", name, smt, i, s.Err())
		}
	}
}

func TestThreadsReplayMatchesVMStreamInEveryWorkload(t *testing.T) {
	cat := workloads.Catalog()
	names := make([]string, 0, len(cat))
	for n := range cat {
		names = append(names, n)
	}
	sort.Strings(names)
	families := map[workloads.Category]bool{}
	for i, n := range names {
		w := cat[n]
		families[w.Category] = true
		sameAsVMStream(t, n, w.Prog, w.Budget, []int{2, 4}[i%2])
	}
	if len(families) < 4 {
		t.Errorf("catalog covered %d workload families, want 4", len(families))
	}
}

func TestThreadsReplayHaltsBeforeBudget(t *testing.T) {
	p := isa.NewBuilder("short").
		Li(isa.GPR(1), 0).
		Li(isa.GPR(2), 5).
		Label("top").
		Addi(isa.GPR(1), isa.GPR(1), 1).
		Bc(isa.CondLT, isa.GPR(1), isa.GPR(2), "top").
		Halt().
		MustBuild()
	for _, smt := range []int{1, 2, 8} {
		sameAsVMStream(t, "short", p, 10_000, smt)
	}
	// Budget cut mid-loop.
	sameAsVMStream(t, "short", p, 7, 3)
}

func TestThreadsReportsExecutionFaults(t *testing.T) {
	p := isa.NewBuilder("boom").
		Li(isa.GPR(1), 9999).
		Br(isa.GPR(1)).
		Halt().
		MustBuild()
	for _, smt := range []int{1, 2} {
		streams := trace.Threads(p, 100, smt)
		for i, s := range streams {
			n := 0
			for {
				if _, ok := s.Next(); !ok {
					break
				}
				n++
			}
			// The branch faults, so every thread ends after the Li record.
			if n != 1 || s.Err() == nil {
				t.Errorf("SMT%d thread %d: %d records, Err %v; want 1 and the fault", smt, i, n, s.Err())
			}
		}
	}
}

// TestThreadsResetReplaysFromTheStart rewinds threads after the shared
// buffer has dropped its prefix and checks every thread still delivers
// exactly a VMStream's records.
func TestThreadsResetReplaysFromTheStart(t *testing.T) {
	w := workloads.Catalog()["compress"]
	const budget = 5000
	ref, err := trace.Capture(w.Prog, budget)
	if err != nil {
		t.Fatal(err)
	}
	streams := trace.Threads(w.Prog, budget, 3)
	next := make([]int, len(streams))
	// read takes n records from thread i, one past the end at most.
	read := func(i, n int) {
		t.Helper()
		for ; n > 0; n-- {
			k := next[i]
			got, ok := streams[i].Next()
			if k >= len(ref) {
				if ok {
					t.Fatalf("thread %d: record %d past the end", i, k)
				}
				return
			}
			if !ok || got != ref[k] {
				t.Fatalf("thread %d record %d: got %+v (%v), want %+v", i, k, got, ok, ref[k])
			}
			next[i]++
		}
	}
	reset := func(i int) {
		streams[i].Reset()
		next[i] = 0
	}
	// Lockstep reads let the buffer drop the prefix every thread has read.
	for k := 0; k < 3000; k++ {
		for i := range streams {
			read(i, 1)
		}
	}
	read(0, 1000)
	reset(1)
	read(1, 100)
	read(2, budget)
	read(0, budget)
	read(1, budget)
	reset(0)
	read(0, budget+1)
}
