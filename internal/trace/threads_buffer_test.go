package trace

import (
	"testing"

	"power10sim/internal/isa"
)

// endless is a program that never halts: its dynamic stream is as long as
// any budget.
func endless() *isa.Program {
	return isa.NewBuilder("endless").
		Li(isa.GPR(1), 0).
		Label("top").
		Addi(isa.GPR(1), isa.GPR(1), 1).
		B("top").
		MustBuild()
}

// TestThreadsBufferFollowsDrift reads a practically unbounded stream and
// checks the shared buffer stays within a small multiple of how far the
// threads are apart, and that the program is executed no further than the
// leading thread has read.
func TestThreadsBufferFollowsDrift(t *testing.T) {
	for _, drift := range []int{0, 1, 1000} {
		streams := Threads(endless(), 1<<40, 4)
		sh := streams[0].(*threadStream).sh
		lead := func() {
			for k := 0; k < drift; k++ {
				if _, ok := streams[0].Next(); !ok {
					t.Fatal("endless stream ended")
				}
			}
		}
		lead()
		for n := 0; n < 200_000; n++ {
			for _, s := range streams {
				if _, ok := s.Next(); !ok {
					t.Fatal("endless stream ended")
				}
			}
		}
		if want := uint64(200_000 + drift); sh.src.n != want {
			t.Errorf("drift %d: executed %d records, want %d", drift, sh.src.n, want)
		}
		if limit := 4*drift + 64; cap(sh.recs) > limit {
			t.Errorf("drift %d: buffer capacity %d records, want at most %d", drift, cap(sh.recs), limit)
		}
	}
}
