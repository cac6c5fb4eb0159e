package uarch

import (
	"testing"

	"power10sim/internal/isa"
	"power10sim/internal/trace"
)

// simpleLoop returns a counted integer loop program.
func simpleLoop(iters int64) *isa.Program {
	return isa.NewBuilder("loop").
		Li(isa.GPR(1), 0).
		Li(isa.GPR(2), iters).
		Label("top").
		Addi(isa.GPR(3), isa.GPR(3), 1).
		Addi(isa.GPR(4), isa.GPR(4), 2).
		Addi(isa.GPR(1), isa.GPR(1), 1).
		Bc(isa.CondLT, isa.GPR(1), isa.GPR(2), "top").
		Halt().
		MustBuild()
}

func simOne(t *testing.T, cfg *Config, p *isa.Program, budget uint64) *Result {
	t.Helper()
	res, err := Simulate(cfg, []trace.Stream{trace.NewVMStream(p, budget)}, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSimulateRetiresEverything(t *testing.T) {
	p := simpleLoop(500)
	recs, err := trace.Capture(p, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []*Config{POWER9(), POWER10()} {
		res := simOne(t, cfg, p, 1<<20)
		if res.Activity.Instructions != uint64(len(recs)) {
			t.Errorf("%s: retired %d, want %d", cfg.Name, res.Activity.Instructions, len(recs))
		}
		if res.Activity.Cycles == 0 {
			t.Errorf("%s: zero cycles", cfg.Name)
		}
	}
}

func TestIPCWithinPhysicalBounds(t *testing.T) {
	p := simpleLoop(2000)
	for _, cfg := range []*Config{POWER9(), POWER10()} {
		res := simOne(t, cfg, p, 1<<20)
		ipc := res.IPC()
		if ipc <= 0 || ipc > float64(cfg.DecodeWidth) {
			t.Errorf("%s: IPC %.2f out of (0, %d]", cfg.Name, ipc, cfg.DecodeWidth)
		}
	}
}

func TestDependentChainBoundsILP(t *testing.T) {
	// A pure dependency chain of multiplies: IPC must approach 1/mulLatency.
	b := isa.NewBuilder("chain")
	b.Li(isa.GPR(1), 3)
	b.Li(isa.GPR(2), 1)
	for i := 0; i < 400; i++ {
		b.Mul(isa.GPR(2), isa.GPR(2), isa.GPR(1))
	}
	b.Halt()
	p := b.MustBuild()
	cfg := POWER10()
	res := simOne(t, cfg, p, 1<<20)
	maxIPC := 1.0/float64(cfg.Latency[isa.ClassIntMul]) + 0.05
	if got := res.IPC(); got > maxIPC {
		t.Errorf("dependent mul chain IPC %.3f exceeds latency bound %.3f", got, maxIPC)
	}
}

func TestIndependentOpsExploitWidth(t *testing.T) {
	// Independent single-cycle adds: the wider POWER10 machine must beat P9.
	b := isa.NewBuilder("ilp")
	for i := 0; i < 3000; i++ {
		r := 1 + i%8
		b.Addi(isa.GPR(r), isa.GPR(r), 1)
	}
	b.Halt()
	p := b.MustBuild()
	p9 := simOne(t, POWER9(), p, 1<<20)
	p10 := simOne(t, POWER10(), p, 1<<20)
	if p10.IPC() <= p9.IPC() {
		t.Errorf("P10 IPC %.2f not above P9 %.2f on wide ILP code", p10.IPC(), p9.IPC())
	}
	if p9.IPC() < 3.0 {
		t.Errorf("P9 IPC %.2f too low for independent adds", p9.IPC())
	}
}

func TestMispredictsSlowExecution(t *testing.T) {
	// Data-dependent unpredictable branches (LCG parity) vs fully biased.
	mk := func(pattern bool) *isa.Program {
		b := isa.NewBuilder("br")
		b.Li(isa.GPR(1), 0)
		b.Li(isa.GPR(2), 4000)
		b.Li(isa.GPR(5), 12345)
		b.Label("top")
		if pattern {
			// r5 = r5*1103515245+12345; branch on bit 16.
			b.Li(isa.GPR(6), 1103515245)
			b.Mul(isa.GPR(5), isa.GPR(5), isa.GPR(6))
			b.Addi(isa.GPR(5), isa.GPR(5), 12345)
			b.Shr(isa.GPR(7), isa.GPR(5), 16)
			b.And(isa.GPR(7), isa.GPR(7), isa.GPR(8)) // r8 preset to 1
			b.Bc(isa.CondEQ, isa.GPR(7), isa.GPR(9), "skip")
			b.Addi(isa.GPR(10), isa.GPR(10), 1)
			b.Label("skip")
		} else {
			b.Addi(isa.GPR(10), isa.GPR(10), 1)
			b.Addi(isa.GPR(11), isa.GPR(11), 1)
			b.Addi(isa.GPR(12), isa.GPR(12), 1)
			b.Addi(isa.GPR(13), isa.GPR(13), 1)
			b.Addi(isa.GPR(14), isa.GPR(14), 1)
			b.Addi(isa.GPR(15), isa.GPR(15), 1)
		}
		b.Addi(isa.GPR(1), isa.GPR(1), 1)
		b.Bc(isa.CondLT, isa.GPR(1), isa.GPR(2), "top")
		b.Halt()
		b.SetGPR(8, 1)
		return b.MustBuild()
	}
	cfg := POWER10()
	hard := simOne(t, cfg, mk(true), 1<<22)
	easy := simOne(t, cfg, mk(false), 1<<22)
	if hard.Activity.MispredictsPerKI() <= easy.Activity.MispredictsPerKI() {
		t.Errorf("hard branches MPKI %.1f <= easy %.1f",
			hard.Activity.MispredictsPerKI(), easy.Activity.MispredictsPerKI())
	}
	if hard.IPC() >= easy.IPC() {
		t.Errorf("hard-branch IPC %.2f >= easy %.2f", hard.IPC(), easy.IPC())
	}
	if hard.Activity.WrongPathSlots == 0 || hard.Activity.FlushedInsts == 0 {
		t.Error("no wrong-path accounting on mispredicting workload")
	}
}

// streamKernel builds a load-heavy streaming loop over a buffer of size bytes.
func streamKernel(name string, bytes int64, iters int64) *isa.Program {
	b := isa.NewBuilder(name)
	b.Li(isa.GPR(1), 0)        // i
	b.Li(isa.GPR(2), iters)    // n
	b.Li(isa.GPR(3), 0x100000) // base
	b.Li(isa.GPR(4), 0)        // offset
	b.Li(isa.GPR(5), bytes)    // wrap
	b.Label("top")
	b.Add(isa.GPR(6), isa.GPR(3), isa.GPR(4))
	b.Ld(isa.GPR(7), isa.GPR(6), 0)
	b.Add(isa.GPR(8), isa.GPR(8), isa.GPR(7))
	b.Addi(isa.GPR(4), isa.GPR(4), 128)
	b.Bc(isa.CondLT, isa.GPR(4), isa.GPR(5), "noreset")
	b.Li(isa.GPR(4), 0)
	b.Label("noreset")
	b.Addi(isa.GPR(1), isa.GPR(1), 1)
	b.Bc(isa.CondLT, isa.GPR(1), isa.GPR(2), "top")
	b.Halt()
	return b.MustBuild()
}

func TestL2SizeMattersForMidWorkingSets(t *testing.T) {
	// 1.5 MiB working set: fits POWER10's 2MB L2, thrashes POWER9's 512KB.
	p := streamKernel("ws1.5m", 3<<19, 30000)
	p9 := simOne(t, POWER9(), p, 1<<22)
	p10 := simOne(t, POWER10(), p, 1<<22)
	p9l3 := p9.Activity.L3Accesses
	p10l3 := p10.Activity.L3Accesses
	if p10l3*2 >= p9l3 {
		t.Errorf("L3 accesses P10=%d vs P9=%d, want P10 far fewer (bigger L2)", p10l3, p9l3)
	}
}

func TestPrefetcherCutsMissLatencyOnStreams(t *testing.T) {
	p := streamKernel("stream", 8<<20, 20000)
	cfg := POWER10()
	with := simOne(t, cfg, p, 1<<22)
	noPf := POWER10()
	noPf.PrefetchStreams = 0
	without := simOne(t, noPf, p, 1<<22)
	if with.Activity.Prefetches == 0 {
		t.Fatal("prefetcher idle on streaming workload")
	}
	if with.IPC() <= without.IPC() {
		t.Errorf("prefetch IPC %.3f <= no-prefetch %.3f", with.IPC(), without.IPC())
	}
}

func TestEATaggingEliminatesMostTranslations(t *testing.T) {
	p := streamKernel("trans", 16<<10, 20000) // L1-resident
	p9 := simOne(t, POWER9(), p, 1<<22)
	p10 := simOne(t, POWER10(), p, 1<<22)
	// POWER9 translates every access; POWER10 only on L1 misses.
	if p10.Activity.DERATLookups*10 >= p9.Activity.DERATLookups {
		t.Errorf("DERAT lookups P10=%d vs P9=%d, want >=10x reduction",
			p10.Activity.DERATLookups, p9.Activity.DERATLookups)
	}
}

func TestFusionReducesInternalOps(t *testing.T) {
	// Dependent ALU pairs back to back: POWER10 fuses, POWER9 cannot.
	b := isa.NewBuilder("fuse")
	for i := 0; i < 2000; i++ {
		b.Addi(isa.GPR(1), isa.GPR(1), 1)
		b.Add(isa.GPR(2), isa.GPR(2), isa.GPR(1)) // depends on previous
	}
	b.Halt()
	p := b.MustBuild()
	p10 := simOne(t, POWER10(), p, 1<<20)
	p9 := simOne(t, POWER9(), p, 1<<20)
	if p10.Activity.FusedPairs == 0 {
		t.Fatal("POWER10 fused nothing on dependent ALU pairs")
	}
	if p9.Activity.FusedPairs != 0 {
		t.Error("POWER9 fused pairs despite FusionEnabled=false")
	}
	if p10.Activity.InternalOps >= p10.Activity.Instructions {
		t.Error("fusion did not reduce internal ops")
	}
	if p10.IPC() <= p9.IPC() {
		t.Errorf("fusion IPC %.2f <= P9 %.2f", p10.IPC(), p9.IPC())
	}
}

func TestStoreFusionSharesQueueEntries(t *testing.T) {
	b := isa.NewBuilder("stpair")
	b.Li(isa.GPR(1), 0x9000)
	for i := 0; i < 1000; i++ {
		b.St(isa.GPR(2), isa.GPR(1), int64(i*16))
		b.St(isa.GPR(3), isa.GPR(1), int64(i*16+8))
	}
	b.Halt()
	p := b.MustBuild()
	res := simOne(t, POWER10(), p, 1<<20)
	if res.Activity.FusedPairs < 900 {
		t.Errorf("store pairs fused %d, want ~1000", res.Activity.FusedPairs)
	}
	if res.Activity.SQAllocs > 1100 {
		t.Errorf("SQ allocs %d, want ~1000 (one per fused pair)", res.Activity.SQAllocs)
	}
}

func TestSMTThroughputScalesButNotLinearly(t *testing.T) {
	mk := func() trace.Stream { return trace.NewVMStream(simpleLoop(2000), 1<<20) }
	cfg := POWER10()
	r1, err := Simulate(cfg, []trace.Stream{mk()}, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	var s4 []trace.Stream
	for i := 0; i < 4; i++ {
		s4 = append(s4, mk())
	}
	r4, err := Simulate(cfg, s4, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if r4.Activity.IPC() <= r1.Activity.IPC() {
		t.Errorf("SMT4 IPC %.2f <= ST %.2f", r4.Activity.IPC(), r1.Activity.IPC())
	}
	if r4.Activity.IPC() > 4*r1.Activity.IPC() {
		t.Errorf("SMT4 IPC %.2f superlinear vs ST %.2f", r4.Activity.IPC(), r1.Activity.IPC())
	}
	for th := 0; th < 4; th++ {
		if r4.Activity.PerThread[th] == 0 {
			t.Errorf("thread %d retired nothing", th)
		}
	}
}

func TestSimulateRejectsBadInputs(t *testing.T) {
	if _, err := Simulate(POWER10(), nil, 1000); err == nil {
		t.Error("no streams accepted")
	}
	var many []trace.Stream
	for i := 0; i < 9; i++ {
		many = append(many, trace.NewVMStream(simpleLoop(1), 100))
	}
	if _, err := Simulate(POWER10(), many, 1000); err == nil {
		t.Error("9 threads accepted on SMT8 core")
	}
}

func TestAblationLadderMonotoneOnAverage(t *testing.T) {
	// Sanity: the full ladder endpoint (all P10 features on P9 base) must
	// beat plain P9 on a mixed workload.
	ladder := AblationLadder()
	if len(ladder) != int(NumAblations)+1 {
		t.Fatalf("ladder length %d", len(ladder))
	}
	p := streamKernel("mix", 1<<20, 8000)
	first := simOne(t, ladder[0], p, 1<<22)
	last := simOne(t, ladder[len(ladder)-1], p, 1<<22)
	if last.IPC() <= first.IPC() {
		t.Errorf("full ladder IPC %.3f <= base %.3f", last.IPC(), first.IPC())
	}
}

func TestCountersVectorMatchesNames(t *testing.T) {
	p := simpleLoop(100)
	res := simOne(t, POWER10(), p, 1<<20)
	v := res.Activity.Counters()
	if len(v) != len(CounterNames) {
		t.Fatalf("counters length %d, names %d", len(v), len(CounterNames))
	}
	for i, x := range v {
		if x < 0 {
			t.Errorf("counter %s negative: %v", CounterNames[i], x)
		}
	}
}

func TestWatchdogDetectsStuckPipelines(t *testing.T) {
	// An empty program cannot deadlock; instead check maxCycles bound.
	p := simpleLoop(1_000_000)
	res, err := Simulate(POWER10(), []trace.Stream{trace.NewVMStream(p, 1<<40)}, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Activity.Cycles > 5000 {
		t.Errorf("cycles %d exceeded maxCycles", res.Activity.Cycles)
	}
}

func TestStoreToLoadForwarding(t *testing.T) {
	// A store immediately re-read: the load must forward from the store
	// queue instead of accessing the L1.
	b := isa.NewBuilder("fwd")
	b.Li(isa.GPR(1), 0x9000)
	b.Li(isa.GPR(2), 0)
	b.Li(isa.GPR(3), 2000)
	b.Label("top")
	b.St(isa.GPR(2), isa.GPR(1), 0)
	b.Ld(isa.GPR(4), isa.GPR(1), 0)
	b.Add(isa.GPR(5), isa.GPR(5), isa.GPR(4))
	b.Addi(isa.GPR(2), isa.GPR(2), 1)
	b.Bc(isa.CondLT, isa.GPR(2), isa.GPR(3), "top")
	b.Halt()
	p := b.MustBuild()
	res := simOne(t, POWER10(), p, 1<<20)
	if res.Activity.StoreForwards < 1500 {
		t.Errorf("store forwards %d, want ~2000", res.Activity.StoreForwards)
	}
}

func TestForwardingDoesNotFireAcrossAddresses(t *testing.T) {
	b := isa.NewBuilder("nofwd")
	b.Li(isa.GPR(1), 0x9000)
	b.Li(isa.GPR(2), 0)
	b.Li(isa.GPR(3), 500)
	b.Label("top")
	b.St(isa.GPR(2), isa.GPR(1), 0)
	b.Ld(isa.GPR(4), isa.GPR(1), 512) // different address
	b.Addi(isa.GPR(2), isa.GPR(2), 1)
	b.Bc(isa.CondLT, isa.GPR(2), isa.GPR(3), "top")
	b.Halt()
	p := b.MustBuild()
	res := simOne(t, POWER10(), p, 1<<20)
	if res.Activity.StoreForwards != 0 {
		t.Errorf("forwarded %d loads with mismatched addresses", res.Activity.StoreForwards)
	}
}

func TestEpochCallbackDeltasSumToTotal(t *testing.T) {
	p := simpleLoop(4000)
	var epochs []Activity
	res, err := Simulate(POWER10(), []trace.Stream{trace.NewVMStream(p, 1<<20)},
		10_000_000, WithEpochs(500, func(d Activity) { epochs = append(epochs, d) }))
	if err != nil {
		t.Fatal(err)
	}
	if len(epochs) < 3 {
		t.Fatalf("only %d epochs", len(epochs))
	}
	var cyc, insts, l1d uint64
	for _, e := range epochs {
		cyc += e.Cycles
		insts += e.Instructions
		l1d += e.L1DAccesses
	}
	if insts != res.Activity.Instructions {
		t.Errorf("epoch insts %d != total %d", insts, res.Activity.Instructions)
	}
	if cyc != res.Activity.Cycles {
		t.Errorf("epoch cycles %d != total %d", cyc, res.Activity.Cycles)
	}
	if l1d != res.Activity.L1DAccesses {
		t.Errorf("epoch l1d %d != total %d", l1d, res.Activity.L1DAccesses)
	}
}

func TestSamplerDeltasSumToTotal(t *testing.T) {
	p := simpleLoop(4000)
	var samples []CycleSample
	res, err := Simulate(POWER10(), []trace.Stream{trace.NewVMStream(p, 1<<20)},
		10_000_000, WithSampler(700, func(s CycleSample) { samples = append(samples, s) }))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) < 3 {
		t.Fatalf("only %d samples", len(samples))
	}
	var cyc, insts, l1d uint64
	prevEnd := uint64(0)
	for i, s := range samples {
		if s.Cycle <= prevEnd {
			t.Errorf("sample %d end cycle %d not increasing past %d", i, s.Cycle, prevEnd)
		}
		if i < len(samples)-1 && s.Delta.Cycles != 700 {
			t.Errorf("sample %d window = %d cycles, want 700", i, s.Delta.Cycles)
		}
		prevEnd = s.Cycle
		cyc += s.Delta.Cycles
		insts += s.Delta.Instructions
		l1d += s.Delta.L1DAccesses
	}
	if insts != res.Activity.Instructions {
		t.Errorf("sample insts %d != total %d", insts, res.Activity.Instructions)
	}
	if cyc != res.Activity.Cycles {
		t.Errorf("sample cycles %d != total %d", cyc, res.Activity.Cycles)
	}
	if l1d != res.Activity.L1DAccesses {
		t.Errorf("sample l1d %d != total %d", l1d, res.Activity.L1DAccesses)
	}
}

func TestSamplerAndEpochsCoexist(t *testing.T) {
	// Samplers and epoch callbacks maintain independent window state; both
	// must see the full run, and disabled sampling (every=0 or nil fn) must
	// not fire.
	p := simpleLoop(2000)
	var nSamples, nEpochs int
	_, err := Simulate(POWER10(), []trace.Stream{trace.NewVMStream(p, 1<<20)},
		10_000_000,
		WithEpochs(500, func(Activity) { nEpochs++ }),
		WithSampler(300, func(CycleSample) { nSamples++ }))
	if err != nil {
		t.Fatal(err)
	}
	if nEpochs < 2 || nSamples < 2 {
		t.Errorf("epochs=%d samples=%d, want both >= 2", nEpochs, nSamples)
	}
	if _, err := Simulate(POWER10(), []trace.Stream{trace.NewVMStream(p, 1<<20)},
		10_000_000, WithSampler(0, func(CycleSample) { t.Error("disabled sampler fired") })); err != nil {
		t.Fatal(err)
	}
	if _, err := Simulate(POWER10(), []trace.Stream{trace.NewVMStream(p, 1<<20)},
		10_000_000, WithSampler(500, nil)); err != nil {
		t.Fatal(err)
	}
}

func TestActivitySubRoundTrip(t *testing.T) {
	p := simpleLoop(500)
	res := simOne(t, POWER10(), p, 1<<20)
	a := res.Activity
	zero := a.Sub(&a)
	if zero.Instructions != 0 || zero.Cycles != 0 || zero.L1DAccesses != 0 ||
		zero.RegWrites != 0 || zero.UnitBusy[UnitFXU] != 0 {
		t.Error("a - a != 0")
	}
	var empty Activity
	same := a.Sub(&empty)
	if same.Instructions != a.Instructions || same.FusedPairs != a.FusedPairs {
		t.Error("a - 0 != a")
	}
}

func TestWatchdogFiresOnPathologicalLatency(t *testing.T) {
	// Failure injection: a memory latency beyond the watchdog window makes
	// retirement stall; the simulator must fail loudly instead of hanging.
	cfg := POWER10()
	cfg.MemLatency = 300_000
	cfg.L2Infinite = false
	cfg.L2 = CacheParams{}
	cfg.L3 = CacheParams{}
	cfg.PrefetchStreams = 0
	b := isa.NewBuilder("stall")
	b.Li(isa.GPR(1), 0x100000)
	b.Ld(isa.GPR(2), isa.GPR(1), 0)
	b.Add(isa.GPR(3), isa.GPR(2), isa.GPR(2))
	b.Halt()
	p := b.MustBuild()
	_, err := Simulate(cfg, []trace.Stream{trace.NewVMStream(p, 100)}, 50_000_000)
	if err == nil {
		t.Fatal("watchdog did not fire on a 300k-cycle stall")
	}
}

// accMoveProgram runs a chain of dependent FMAs into VSR(1), moves VSRs
// 62, 63, 0 and 1 into ACC(0) and back out (the 4-VSR base wraps modulo
// NumVSR), then runs a second FMA chain on consumer.
func accMoveProgram(consumer isa.Reg, chain int) *isa.Program {
	b := isa.NewBuilder("acc-move-wrap")
	for i := 0; i < chain; i++ {
		b.Xvmaddadp(isa.VSR(1), isa.VSR(2), isa.VSR(3))
	}
	b.Xxmtacc(isa.ACC(0), isa.VSR(62))
	b.Xxmfacc(isa.VSR(62), isa.ACC(0))
	for i := 0; i < chain; i++ {
		b.Xvmaddadp(consumer, isa.VSR(2), isa.VSR(3))
	}
	return b.Halt().MustBuild()
}

// TestAccMoveWrapsVSRBase is the regression test for accumulator moves whose
// 4-VSR group runs past VSR(63): the timing model must wrap the register
// numbers the way the VM does (it indexed past the rename table before) and
// keep the dependences. Xxmtacc from VSR(62) reads the first chain's VSR(1),
// and Xxmfacc to VSR(62) writes VSR(0), so a second chain on VSR(0) must wait
// for the first, while the same chain on an untouched VSR overlaps with it.
func TestAccMoveWrapsVSRBase(t *testing.T) {
	const chain = 12
	for _, cfg := range []*Config{POWER9(), POWER10()} {
		for _, smt := range []int{1, 4} {
			for _, sched := range []struct {
				name string
				opts []SimOption
			}{{"wakeup", nil}, {"naive", []SimOption{withNaiveSched()}}} {
				run := func(consumer isa.Reg) uint64 {
					p := accMoveProgram(consumer, chain)
					streams := make([]trace.Stream, smt)
					for i := range streams {
						streams[i] = trace.NewVMStream(p, 1<<20)
					}
					res, err := Simulate(cfg, streams, 10_000_000, sched.opts...)
					if err != nil {
						t.Fatalf("%s smt%d %s: %v", cfg.Name, smt, sched.name, err)
					}
					return res.Activity.Cycles
				}
				wrapped, independent := run(isa.VSR(0)), run(isa.VSR(10))
				lat := uint64(cfg.Latency[isa.ClassVSXFMA])
				if wrapped < independent+chain*lat/2 {
					t.Errorf("%s smt%d %s: chain on the wrapped VSR(0) took %d cycles, on an untouched VSR %d; "+
						"want it to wait on the move (about %d cycles more)",
						cfg.Name, smt, sched.name, wrapped, independent, chain*lat)
				}
			}
		}
	}
}
