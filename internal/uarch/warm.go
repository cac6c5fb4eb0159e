package uarch

import (
	"fmt"

	"power10sim/internal/trace"
)

// WithFunctionalWarming replays the given streams through the core's stateful
// structures — I-cache, branch predictor, data-cache hierarchy, TLB and
// prefetcher — before cycle 0, without running the timing model. This is the
// sampling engine's long-range warmup: architectural state at an interval's
// position in the full run is reproduced at functional-execution cost (orders
// of magnitude cheaper than timed simulation), so a representative window can
// start from in-context cache and predictor contents instead of cold arrays.
//
// Streams are warmed in order, one per hardware thread (stream i warms thread
// i's predictor context; cache state is shared). All statistics accumulated
// during warming are discarded; WithWarmup composes on top for a short timed
// warmup of pipeline and queue occupancy.
func WithFunctionalWarming(streams []trace.Stream) SimOption {
	return func(o *simOptions) { o.warmStreams = streams }
}

// functionalWarm drains the warm streams through the stateful components.
// The pseudo-clock (one tick per record) exists only to age prefetcher
// streams consistently; no cycle-accurate state is touched.
func (c *core) functionalWarm(streams []trace.Stream) error {
	lineBytes := uint64(c.cfg.L1D.LineBytes)
	for i, s := range streams {
		t := i
		if t >= len(c.threads) {
			t = len(c.threads) - 1
		}
		prog := s.Program()
		var now uint64
		for {
			d, ok := s.Next()
			if !ok {
				break
			}
			now++
			cls := prog.Code[d.Idx].Class()
			c.l1i.Access(d.PC)
			if cls.IsBranch() {
				c.bp.Observe(t, d.PC, cls, d.Taken, d.NextPC)
				continue
			}
			if cls.IsMem() {
				c.mmu.Translate(d.EA)
				if _, lvl := c.hier.Access(d.EA); lvl != LvlL1 && cls.IsLoad() {
					for _, pl := range c.pf.OnMiss(d.EA/lineBytes, now) {
						c.hier.InsertLine(pl * lineBytes)
					}
				}
			}
		}
		if err := s.Err(); err != nil {
			return fmt.Errorf("uarch: functional warming stream %d: %w", i, err)
		}
	}
	// Warming is stat-free by contract: only the state survives.
	c.resetStats()
	return nil
}
