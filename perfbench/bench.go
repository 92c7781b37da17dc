package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"
)

// hostCost is what one measured call (or a pass of them) cost the host.
type hostCost struct {
	wall, cpu           float64 // seconds
	allocBytes, mallocs uint64
}

func (c *hostCost) add(o hostCost) {
	c.wall += o.wall
	c.cpu += o.cpu
	c.allocBytes += o.allocBytes
	c.mallocs += o.mallocs
}

// bench is one workload run: its seed and time budget, the host costs
// of its set-ups and measured passes, the sim-time results of its first
// pass, the per-layer counts and the correctness record.
type bench struct {
	name    string
	seed    int64
	seconds float64
	sf      float64 // tpch22 scale factor

	spans  *spanLog                 // nil unless traced
	timers map[string]time.Duration // Σ wall per public call name

	setupS  []float64
	passes  []map[string]hostCost // per pass: cost of each measured call
	cur     map[string]hostCost
	started time.Time // first pass (with its set-up) began
	passT0  time.Time // current pass (with its set-up) began
	passDur []float64 // wall of each finished pass with its set-ups
	passSp  int       // open "pass" span

	okShare float64            // correctly served share of offered queries (first pass)
	counts  map[string]float64 // per-layer counts and sim-clock outcomes (first pass)

	attempted, failed int
	problems          []string // correctness-gate mismatches
	notes             []string // human-readable lines printed before the result
}

func newBench(name string, seed int64, seconds, sf float64) *bench {
	return &bench{
		name: name, seed: seed, seconds: seconds, sf: sf,
		timers: map[string]time.Duration{},
		counts: map[string]float64{},
	}
}

// call times one call into the system's public API under name,
// recording a span when traced.
func (b *bench) call(name string, args map[string]any, fn func() error) error {
	sp := b.spans.begin(name, args)
	t0 := time.Now()
	err := fn()
	b.timers[name] += time.Since(t0)
	b.spans.end(sp)
	return err
}

// setup times one set-up step (platform build and data load) for
// setup_s. Workloads call it several times per run.
func (b *bench) setup(fn func() error) error {
	t0 := time.Now()
	err := b.call("setup", nil, fn)
	b.setupS = append(b.setupS, time.Since(t0).Seconds())
	return err
}

// measure runs one measured call and charges its wall, CPU and heap
// allocation to the current pass under the call's name and arguments.
func (b *bench) measure(name string, args map[string]any, fn func() error) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuSeconds()
	t0 := time.Now()
	err := b.call(name, args, fn)
	wall := time.Since(t0).Seconds()
	c1 := cpuSeconds()
	runtime.ReadMemStats(&m1)
	if b.cur == nil {
		b.cur = map[string]hostCost{}
	}
	key := fmt.Sprint(name, " ", args)
	c := b.cur[key]
	c.add(hostCost{wall, c1 - c0, m1.TotalAlloc - m0.TotalAlloc, m1.Mallocs - m0.Mallocs})
	b.cur[key] = c
	return err
}

// minPasses is the fewest measured passes a run makes: with three, a
// call's median outvotes one odd pass, where the median of two is
// their mean.
const minPasses = 3

// more reports whether another measured pass should run: the first
// minPasses, then each one that, at the median length of a pass with
// its set-ups so far, ends within --seconds of the first pass's start.
func (b *bench) more() bool {
	now := time.Now()
	if len(b.passes) == 0 {
		b.started = now
	} else {
		b.passDur = append(b.passDur, now.Sub(b.passT0).Seconds())
		if len(b.passes) >= minPasses && now.Sub(b.started).Seconds()+median(b.passDur) > b.seconds {
			return false
		}
	}
	b.passT0 = now
	b.passSp = b.spans.begin("pass", map[string]any{"pass": len(b.passes)})
	return true
}

// first reports whether the current pass is the first, the one whose
// sim results, counts and digests are recorded.
func (b *bench) first() bool { return len(b.passes) == 0 }

// passSeed is the input seed of the current pass: --seed itself for the
// first pass, then a fixed sequence derived from it. Later passes run
// on other data sets, so the host medians of one run average over
// several data sets rather than resting on one seed's planner choices.
func (b *bench) passSeed() int64 {
	return int64(uint64(b.seed) ^ uint64(len(b.passes))*0x9E3779B97F4A7C15)
}

func (b *bench) endPass() {
	b.spans.end(b.passSp)
	b.passes = append(b.passes, b.cur)
	b.cur = nil
}

// check records a correctness failure when ok is false.
func (b *bench) check(ok bool, format string, args ...any) {
	if !ok {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

// typical is the cost of one measured pass taken call by call: the sum,
// over the measured calls, of each call's median cost across passes.
// A pass seed on which the planner chooses differently, or a burst of
// host noise, moves a few calls in one pass and drops out of their
// medians, where it would move that pass's total.
func (b *bench) typical() hostCost {
	byCall := map[string][]hostCost{}
	for _, p := range b.passes {
		for k, c := range p {
			byCall[k] = append(byCall[k], c)
		}
	}
	var wall, cpu, bytes, mallocs float64
	for _, cs := range byCall {
		of := func(f func(hostCost) float64) float64 {
			xs := make([]float64, len(cs))
			for i, c := range cs {
				xs[i] = f(c)
			}
			return median(xs)
		}
		wall += of(func(c hostCost) float64 { return c.wall })
		cpu += of(func(c hostCost) float64 { return c.cpu })
		bytes += of(func(c hostCost) float64 { return float64(c.allocBytes) })
		mallocs += of(func(c hostCost) float64 { return float64(c.mallocs) })
	}
	return hostCost{wall, cpu, uint64(bytes), uint64(mallocs)}
}

// runS is the wall of a typical measured pass.
func (b *bench) runS() float64 { return b.typical().wall }

// endToEnd assembles the untraced run's end-to-end metrics: host costs
// of a typical pass, the median set-up, ok_share from the first pass.
func (b *bench) endToEnd() metrics {
	t := b.typical()
	m := metrics{
		"setup_s":        {median(b.setupS), "s"},
		"run_s":          {t.wall, "s"},
		"run_cpu_s":      {t.cpu, "s"},
		"alloc_bytes":    {float64(t.allocBytes), "B"},
		"allocs":         {float64(t.mallocs), "count"},
		"peak_rss_bytes": {peakRSS(), "B"},
		"ok_share":       {b.okShare, "share"},
	}
	var walls []float64
	for _, p := range b.passes {
		var w float64
		for _, c := range p {
			w += c.wall
		}
		walls = append(walls, w)
	}
	q1, q2, q3 := quartiles(walls)
	s1, s2, s3 := quartiles(b.setupS)
	b.notes = append(b.notes, fmt.Sprintf("%d passes: wall quartiles %.3f %.3f %.3f s; %d set-ups: %.3f %.3f %.3f s",
		len(b.passes), q1, q2, q3, len(b.setupS), s1, s2, s3))
	return m
}

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSS is the process's peak resident set in bytes.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 // Linux reports KiB
}
