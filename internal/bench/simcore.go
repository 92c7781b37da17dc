package bench

import (
	"fmt"
	"testing"
	"time"

	"biscuit/internal/fibers"
	"biscuit/internal/sim"
)

// SimCoreScenario is one measured DES-core workload. Three kinds of
// field coexist, and cmd/benchgate applies a different regression rule
// to each (keyed on the JSON field name):
//
//   - Ops, FinalSim, Checksum are pure functions of the workload and
//     the scheduler's (at, seq) order — deterministic across machines,
//     gated for exact equality. A checksum drift means the event queue
//     changed dispatch order, which would silently break every seeded
//     trace in the repository.
//   - AllocsPerOp is measured with testing.AllocsPerRun — gated to
//     never rise (the committed baselines say 0: the steady-state core
//     is allocation-free, also enforced by the alloc tests in
//     internal/sim).
//   - EventsPerSec and SpeedupVsRef are wall-clock — gated within a
//     relative tolerance (-walltol).
type SimCoreScenario struct {
	Name string `json:"name"`
	Ops  int64  `json:"ops"`
	// FinalSim is the virtual time the scenario reached (digest).
	FinalSim sim.Time `json:"final_sim"`
	// Checksum digests the scenario's exact pop order, where defined.
	Checksum string `json:"checksum,omitempty"`
	// AllocsPerOp is heap allocations per steady-state operation.
	AllocsPerOp float64 `json:"allocs_per_op"`
	// EventsPerSec is wall-clock throughput of the scenario.
	EventsPerSec float64 `json:"events_per_sec"`
	// SpeedupVsRef is this scenario's events/sec divided by the same
	// workload on the retained pre-optimization container/heap queue
	// (internal/sim refQueue) run in the same process — a
	// machine-normalized measure of the queue swap, only set for the
	// hold scenarios.
	SpeedupVsRef float64 `json:"speedup_vs_ref,omitempty"`
}

// SimCore is the BENCH_simcore.json payload: the DES-core regression
// surface the bench gate holds steady.
type SimCore struct {
	Scenarios []SimCoreScenario `json:"scenarios"`
}

// simCoreOps sizes the measured runs: large enough that fixed setup
// (queue prefill, process spawns) vanishes into the per-op averages.
const simCoreOps = 1 << 19

// wallEventsPerSec times fn (which performs ops operations) on the
// wall clock, best of five runs: scheduler interference only ever
// slows a run down, so the minimum elapsed time converges on the
// machine's true speed and keeps the bench gate's tolerances from
// tripping on noise (the speedup_vs_ref ratios are gated tightly, so
// both their sides must be measured this way). The wall clock is
// exactly what this experiment measures — how fast the simulator
// itself runs — so the walltime waiver below is the sanctioned use,
// not a leak of host time into simulated results.
func wallEventsPerSec(ops int64, fn func()) float64 {
	var best float64
	for i := 0; i < 5; i++ {
		if el := wallSeconds(fn); el > 0 && (best == 0 || el < best) {
			best = el
		}
	}
	if best <= 0 {
		return 0
	}
	return float64(ops) / best
}

// wallSeconds times one fn run. This is the package's single wall-clock
// read: measuring simulator wall throughput is this experiment's
// purpose, hence the walltime waivers.
func wallSeconds(fn func()) float64 {
	start := time.Now() //biscuitvet:ignore walltime: timing the simulator itself is the experiment
	fn()
	return time.Since(start).Seconds() //biscuitvet:ignore walltime: timing the simulator itself is the experiment
}

// holdScenario runs the hold model at one queue depth on both queue
// implementations and digests the comparison. The two sides are timed
// in interleaved passes (new, ref, new, ref, ...) and each side keeps
// its minimum, so a burst of host interference cannot land entirely on
// one side and skew the speedup ratio the bench gate holds to walltol.
func holdScenario(pending int) SimCoreScenario {
	const seed = 1
	res := sim.Hold(pending, simCoreOps, seed)
	bestNew, bestRef := 0.0, 0.0
	for pass := 0; pass < 7; pass++ {
		n := wallSeconds(func() { sim.Hold(pending, simCoreOps, seed) })
		r := wallSeconds(func() { sim.HoldRef(pending, simCoreOps, seed) })
		if n > 0 && (bestNew == 0 || n < bestNew) {
			bestNew = n
		}
		if r > 0 && (bestRef == 0 || r < bestRef) {
			bestRef = r
		}
	}
	newEPS, refEPS := 0.0, 0.0
	if bestNew > 0 {
		newEPS = float64(res.Events) / bestNew
	}
	if bestRef > 0 {
		refEPS = float64(res.Events) / bestRef
	}
	allocs := testing.AllocsPerRun(2, func() { sim.Hold(pending, 1<<15, seed) })
	sc := SimCoreScenario{
		Name:         fmt.Sprintf("hold-%d", pending),
		Ops:          res.Events,
		FinalSim:     res.Final,
		Checksum:     fmt.Sprintf("%016x", res.Checksum),
		AllocsPerOp:  allocs / float64(1<<15),
		EventsPerSec: newEPS,
	}
	if refEPS > 0 {
		sc.SpeedupVsRef = newEPS / refEPS
	}
	return sc
}

// afterScenario drives the scheduler's inner loop: schedule+dispatch of
// pure timer callbacks through a full Env, no processes involved.
func afterScenario() SimCoreScenario {
	run := func(ops int) sim.Time {
		e := sim.NewEnv()
		count := 0
		fn := func() { count++ }
		for i := 0; i < ops; i += 128 {
			for j := 0; j < 128; j++ {
				e.After(sim.Time(j%37), fn)
			}
			e.Run()
		}
		return e.Now()
	}
	final := run(simCoreOps)
	eps := wallEventsPerSec(simCoreOps, func() { run(simCoreOps) })
	// Alloc measurement on a warmed Env: only the dispatch cycle runs
	// inside AllocsPerRun, so the committed budget is exactly zero.
	e := sim.NewEnv()
	count := 0
	fn := func() { count++ }
	allocs := testing.AllocsPerRun(2, func() {
		for i := 0; i < 1<<12; i++ {
			e.After(sim.Time(i%37), fn)
		}
		e.Run()
	})
	return SimCoreScenario{
		Name:         "after",
		Ops:          simCoreOps,
		FinalSim:     final,
		AllocsPerOp:  allocs / float64(1<<12),
		EventsPerSec: eps,
	}
}

// sleepScenario measures the typed-wake park/resume path: one process
// suspension and resumption per op, two goroutine handoffs each.
func sleepScenario() SimCoreScenario {
	const ops = simCoreOps / 4 // channel handoffs make each op ~10x dearer
	run := func(n int) sim.Time {
		e := sim.NewEnv()
		e.Spawn("sleeper", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(1)
			}
		})
		e.Run()
		return e.Now()
	}
	final := run(ops)
	eps := wallEventsPerSec(ops, func() { run(ops) })
	allocs := testing.AllocsPerRun(2, func() { run(1 << 14) })
	return SimCoreScenario{
		Name:         "sleep",
		Ops:          ops,
		FinalSim:     final,
		AllocsPerOp:  allocs / float64(1<<14),
		EventsPerSec: eps,
	}
}

// yieldScenario measures a full cooperative fiber context switch with
// observability disabled — the fibers runtime's steady state.
func yieldScenario() SimCoreScenario {
	const ops = simCoreOps / 8
	run := func(n int) sim.Time {
		env := sim.NewEnv()
		rt := fibers.New(env, fibers.Config{Cores: 1, Hz: 750e6, CSW: 100})
		g := rt.NewGroup()
		for i := 0; i < 2; i++ {
			g.Go("pingpong", func(f *fibers.Fiber) {
				for j := 0; j < n/2; j++ {
					f.Yield()
				}
			})
		}
		env.Run()
		return env.Now()
	}
	final := run(ops)
	eps := wallEventsPerSec(ops, func() { run(ops) })
	allocs := testing.AllocsPerRun(2, func() { run(1 << 13) })
	// The fixed spawn/teardown cost (two fibers, one group) is part of
	// every AllocsPerRun iteration; subtracting it would be guesswork,
	// so the committed budget is the honest amortized figure instead of
	// a hand-zeroed one. It still rounds to 0.00 per op.
	return SimCoreScenario{
		Name:         "fiber-yield",
		Ops:          int64(ops),
		FinalSim:     final,
		AllocsPerOp:  allocs / float64(1<<13),
		EventsPerSec: eps,
	}
}

// RunSimCore measures the DES core: the hold model at three queue
// depths on both queue implementations, the timer dispatch loop, the
// process park/resume path, and the fiber context switch. Everything
// deterministic about these workloads (op counts, final virtual times,
// pop-order checksums) is digested for exact comparison; the wall-clock
// figures ride along under a tolerance.
func RunSimCore() SimCore {
	var out SimCore
	for _, pending := range []int{64, 1024, 8192} {
		out.Scenarios = append(out.Scenarios, holdScenario(pending))
	}
	out.Scenarios = append(out.Scenarios, afterScenario(), sleepScenario(), yieldScenario())
	return out
}
