// Package trace provides the dynamic instruction stream abstraction that
// connects the functional executor (internal/isa) to the timing simulator
// (internal/uarch) and to the methodology tooling (proxies, tracepoints).
package trace

import (
	"fmt"
	"slices"

	"power10sim/internal/isa"
)

// Stream produces a dynamic instruction sequence for one hardware thread.
type Stream interface {
	// Next returns the next dynamic instruction. ok is false at end of stream.
	Next() (rec isa.DynInst, ok bool)
	// Program returns the static code the stream's records index into.
	Program() *isa.Program
	// Reset rewinds the stream to its beginning.
	Reset()
	// Err reports the functional execution error that ended the stream
	// early, if any. A stream that ran out of budget or halted reports nil.
	Err() error
}

// VMStream executes a program functionally, on demand, up to a budget of
// dynamic instructions. Reset restarts execution from the initial state.
type VMStream struct {
	prog   *isa.Program
	budget uint64
	vm     *isa.VM
	n      uint64
	err    error
}

// NewVMStream creates a stream over prog limited to budget instructions.
func NewVMStream(prog *isa.Program, budget uint64) *VMStream {
	return &VMStream{prog: prog, budget: budget, vm: isa.NewVM(prog)}
}

// Next implements Stream.
func (s *VMStream) Next() (isa.DynInst, bool) {
	if s.err != nil || s.n >= s.budget {
		return isa.DynInst{}, false
	}
	rec, ok, err := s.vm.Step()
	if err != nil {
		s.err = err
		return isa.DynInst{}, false
	}
	if !ok {
		return isa.DynInst{}, false
	}
	s.n++
	return rec, true
}

// Program implements Stream.
func (s *VMStream) Program() *isa.Program { return s.prog }

// Reset implements Stream. The VM is rewound in place (registers and memory
// image restored without reallocation), so resetting and replaying a stream
// is allocation-free once the program's memory footprint has been touched.
func (s *VMStream) Reset() {
	s.vm.Reset()
	s.n = 0
	s.err = nil
}

// Err implements Stream.
func (s *VMStream) Err() error { return s.err }

// SliceStream replays a captured record slice.
type SliceStream struct {
	prog *isa.Program
	recs []isa.DynInst
	pos  int
	// LoopForever, when set, wraps around at the end (the paper's
	// "L1-contained endless loops" proxy payloads). Budget still bounds
	// total records delivered.
	LoopForever bool
	Budget      uint64
	delivered   uint64
}

// NewSliceStream replays recs against prog once.
func NewSliceStream(prog *isa.Program, recs []isa.DynInst) *SliceStream {
	return &SliceStream{prog: prog, recs: recs}
}

// NewLoopStream replays recs endlessly up to budget records, emulating the
// L1-contained endless-loop payloads used for RTLSim proxy workloads.
func NewLoopStream(prog *isa.Program, recs []isa.DynInst, budget uint64) *SliceStream {
	return &SliceStream{prog: prog, recs: recs, LoopForever: true, Budget: budget}
}

// Next implements Stream.
func (s *SliceStream) Next() (isa.DynInst, bool) {
	if len(s.recs) == 0 {
		return isa.DynInst{}, false
	}
	if s.Budget > 0 && s.delivered >= s.Budget {
		return isa.DynInst{}, false
	}
	if s.pos >= len(s.recs) {
		if !s.LoopForever {
			return isa.DynInst{}, false
		}
		s.pos = 0
	}
	rec := s.recs[s.pos]
	s.pos++
	s.delivered++
	return rec, true
}

// Program implements Stream.
func (s *SliceStream) Program() *isa.Program { return s.prog }

// Reset implements Stream.
func (s *SliceStream) Reset() { s.pos = 0; s.delivered = 0 }

// Err implements Stream: replaying captured records cannot fail.
func (s *SliceStream) Err() error { return nil }

// Len returns the number of captured records.
func (s *SliceStream) Len() int { return len(s.recs) }

// Records exposes the captured records (read-only by convention).
func (s *SliceStream) Records() []isa.DynInst { return s.recs }

// Capture functionally executes prog for up to budget instructions and
// returns the dynamic trace.
func Capture(prog *isa.Program, budget uint64) ([]isa.DynInst, error) {
	vm := isa.NewVM(prog)
	recs := make([]isa.DynInst, 0, min(budget, 1<<16))
	_, err := vm.Run(budget, func(d isa.DynInst) bool {
		recs = append(recs, d)
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("capture %q: %w", prog.Name, err)
	}
	return recs, nil
}

// Threads returns smt streams that each deliver the records a VMStream over
// prog and budget would deliver: the per-thread inputs of an SMT run whose
// threads all execute the same program. The program is executed functionally
// once, on demand, by whichever thread first asks for a record. The records
// some thread has yet to read are buffered and the prefix every thread has
// read is dropped, so memory follows how far the threads drift apart, not the
// budget, and execution stops when the consumer stops reading. A stream whose
// records end on an execution fault reports it through Err, as a VMStream
// does. The streams share state: read them from one goroutine. A single
// thread gets a plain VMStream, which delivers records about a third faster
// than a shared stream's bookkeeping allows.
func Threads(prog *isa.Program, budget uint64, smt int) []Stream {
	if smt == 1 {
		return []Stream{NewVMStream(prog, budget)}
	}
	sh := &sharedTrace{
		src:  NewVMStream(prog, budget),
		recs: make([]isa.DynInst, 0, 64),
		pos:  make([]uint64, smt),
	}
	streams := make([]Stream, smt)
	for i := range streams {
		streams[i] = &threadStream{sh: sh, id: i}
	}
	return streams
}

// sharedTrace is the functional execution behind a Threads group. recs holds
// records base, base+1, ... of the dynamic stream; pos holds each thread's
// next record.
type sharedTrace struct {
	src  *VMStream
	recs []isa.DynInst
	base uint64
	pos  []uint64
	done bool // src has ended: budget, halt or fault
}

// fill executes the program until record p is buffered and reports whether
// the stream reaches it.
func (sh *sharedTrace) fill(p uint64) bool {
	for p >= sh.base+uint64(len(sh.recs)) {
		if sh.done {
			return false
		}
		rec, ok := sh.src.Next()
		if !ok {
			sh.done = true
			return false
		}
		if len(sh.recs) == cap(sh.recs) {
			sh.compact()
		}
		sh.recs = append(sh.recs, rec)
	}
	return true
}

// compact drops the records every thread has read once they are at least
// half of the full buffer; otherwise the next append grows it. Either way a
// record is moved O(1) times on average.
func (sh *sharedTrace) compact() {
	low := slices.Min(sh.pos)
	drop := low - sh.base
	if drop == 0 || drop < uint64(len(sh.recs))/2 {
		return
	}
	n := copy(sh.recs, sh.recs[drop:])
	sh.recs = sh.recs[:n]
	sh.base = low
}

// threadStream is one thread's cursor into a sharedTrace.
type threadStream struct {
	sh  *sharedTrace
	id  int
	err error
}

// Next implements Stream.
func (s *threadStream) Next() (isa.DynInst, bool) {
	sh := s.sh
	p := sh.pos[s.id]
	if !sh.fill(p) {
		s.err = sh.src.Err()
		return isa.DynInst{}, false
	}
	sh.pos[s.id] = p + 1
	return sh.recs[p-sh.base], true
}

// Program implements Stream.
func (s *threadStream) Program() *isa.Program { return s.sh.src.Program() }

// Reset implements Stream. Once records have been dropped, rewinding one
// thread restarts the shared execution; the other threads' records are
// executed again as they ask for them.
func (s *threadStream) Reset() {
	sh := s.sh
	sh.pos[s.id] = 0
	s.err = nil
	if sh.base > 0 {
		sh.src.Reset()
		sh.recs = sh.recs[:0]
		sh.base = 0
		sh.done = false
	}
}

// Err implements Stream.
func (s *threadStream) Err() error { return s.err }

// Stats summarizes a dynamic instruction stream.
type Stats struct {
	Instructions uint64
	ByClass      [isa.NumClasses]uint64
	Flops        uint64
	IntMACs      uint64
	Branches     uint64
	Taken        uint64
	LoadBytes    uint64
	StoreBytes   uint64
	UniqueLines  int // distinct 64B cache lines touched by data accesses
	UniquePCs    int
}

// Mix returns the fraction of instructions in class c.
func (st *Stats) Mix(c isa.Class) float64 {
	if st.Instructions == 0 {
		return 0
	}
	return float64(st.ByClass[c]) / float64(st.Instructions)
}

// GEMMRatio returns the fraction of instructions in MMA or VSX-FMA classes —
// the "GEMM instruction ratio" panel of Fig. 6.
func (st *Stats) GEMMRatio() float64 {
	if st.Instructions == 0 {
		return 0
	}
	g := st.ByClass[isa.ClassMMA] + st.ByClass[isa.ClassVSXFMA]
	return float64(g) / float64(st.Instructions)
}

// Summarize computes stream statistics from captured records.
func Summarize(prog *isa.Program, recs []isa.DynInst) Stats {
	var st Stats
	lines := map[uint64]struct{}{}
	pcs := map[uint64]struct{}{}
	for i := range recs {
		d := &recs[i]
		in := &prog.Code[d.Idx]
		c := in.Class()
		st.Instructions++
		st.ByClass[c]++
		st.Flops += uint64(isa.FlopsOf(in.Op))
		st.IntMACs += uint64(isa.IntOpsOf(in.Op))
		pcs[d.PC] = struct{}{}
		if c.IsBranch() {
			st.Branches++
			if d.Taken {
				st.Taken++
			}
		}
		if c.IsMem() {
			n := uint64(isa.MemBytesOf(in.Op))
			if c.IsLoad() {
				st.LoadBytes += n
			} else {
				st.StoreBytes += n
			}
			for a := d.EA &^ 63; a < d.EA+n; a += 64 {
				lines[a] = struct{}{}
			}
		}
	}
	st.UniqueLines = len(lines)
	st.UniquePCs = len(pcs)
	return st
}
