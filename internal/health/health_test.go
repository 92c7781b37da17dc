package health_test

import (
	"testing"

	"biscuit/internal/ftl"
	"biscuit/internal/health"
	"biscuit/internal/sim"
	"biscuit/internal/stats"
)

// rig is one attached device's gauges and RAIN counts plus the monitor
// watching it.
type rig struct {
	e    *sim.Env
	g    *stats.Gauges
	rain ftl.RainStats
	m    *health.Monitor
}

func newRig(cfg health.Config) *rig {
	r := &rig{e: sim.NewEnv(), g: stats.NewGauges()}
	r.m = health.NewMonitor(r.e, cfg)
	return r
}

// probe is the rig device's probe; its Rain reads the rig's live counts.
func (r *rig) probe() health.Probe {
	return health.Probe{Gauges: r.g, Rain: func() ftl.RainStats { return r.rain }}
}

func TestMonitorBackfillsTicksAtBoundaries(t *testing.T) {
	// The monitor rides the gauge registry's pre-mutation hook, so a
	// mutation long after a tick boundary must still evaluate the
	// elapsed ticks at their boundary times with left-limit values: a
	// GC-debt level raised at t=0 crosses the Degraded threshold on the
	// first tick (10µs), even though the triggering mutation lands at
	// 35µs.
	r := newRig(health.Config{Interval: 10 * sim.Microsecond, DegradedScore: 4, CriticalScore: 100, ClearTicks: 5})
	r.m.Attach("dev", r.probe())
	debt := r.g.G("ftl.gc.debt")
	r.e.Spawn("t", func(p *sim.Proc) {
		debt.Set(5)
		p.Sleep(35 * sim.Microsecond)
		debt.Set(5) // first mutation past the boundaries: backfills ticks 1..3
	})
	r.e.Run()
	log := r.m.Transitions()
	if len(log) != 1 {
		t.Fatalf("want exactly one transition, got %v", log)
	}
	tr := log[0]
	if tr.From != health.Healthy || tr.To != health.Degraded {
		t.Fatalf("want Healthy->Degraded, got %v->%v", tr.From, tr.To)
	}
	if tr.At != 10*sim.Microsecond {
		t.Fatalf("transition stamped at %v, want the 10µs tick boundary", tr.At)
	}
	if r.m.State(0) != health.Degraded {
		t.Fatalf("state = %v, want degraded", r.m.State(0))
	}
}

func TestMonitorHysteresis(t *testing.T) {
	// A hard-failure counter delta escalates straight to Critical on
	// the next tick; recovery then steps down one level per ClearTicks
	// consecutive zero-score ticks: Critical -> Degraded -> Healthy.
	r := newRig(health.Config{Interval: 10 * sim.Microsecond, DegradedScore: 4, CriticalScore: 100, ClearTicks: 3})
	r.m.Attach("dev", r.probe())
	r.e.Spawn("t", func(p *sim.Proc) {
		r.rain.ReconstructFails++
		p.Sleep(100 * sim.Microsecond)
	})
	r.e.Run()
	r.m.Advance() // trailing ticks: no gauge mutated after t=0
	log := r.m.Transitions()
	want := []struct {
		at       sim.Time
		from, to health.State
	}{
		{10 * sim.Microsecond, health.Healthy, health.Critical},
		{40 * sim.Microsecond, health.Critical, health.Degraded},
		{70 * sim.Microsecond, health.Degraded, health.Healthy},
	}
	if len(log) != len(want) {
		t.Fatalf("want %d transitions, got %v", len(want), log)
	}
	for i, w := range want {
		if log[i].At != w.at || log[i].From != w.from || log[i].To != w.to {
			t.Fatalf("transition %d = %+v, want %v->%v at %v", i, log[i], w.from, w.to, w.at)
		}
	}
}

func TestMonitorDeadDiePinsDegraded(t *testing.T) {
	// A dead die scores DegradedScore every tick: the device escalates
	// to Degraded once and can never de-escalate (the media stays short
	// a die, rebuilt or not) — but a dead die alone is not Critical.
	r := newRig(health.Config{Interval: 10 * sim.Microsecond, DegradedScore: 4, CriticalScore: 100, ClearTicks: 2})
	dead := 0
	probe := r.probe()
	probe.DeadDies = func() int { return dead }
	r.m.Attach("dev", probe)
	r.e.Spawn("t", func(p *sim.Proc) {
		dead = 1
		p.Sleep(200 * sim.Microsecond)
	})
	r.e.Run()
	r.m.Advance()
	if got := r.m.State(0); got != health.Degraded {
		t.Fatalf("state = %v, want degraded (pinned, not critical)", got)
	}
	if n := len(r.m.Transitions()); n != 1 {
		t.Fatalf("a pinned device must transition once, got %d", n)
	}
}

func TestMonitorSharedGridOrdersDevices(t *testing.T) {
	// Two devices crossing thresholds on the same tick must be logged
	// in attach order — the shared grid is what keeps the transition
	// log (and its signature) schedule-invariant.
	r := newRig(health.Config{Interval: 10 * sim.Microsecond, DegradedScore: 4, CriticalScore: 100, ClearTicks: 5})
	g2 := stats.NewGauges()
	r.m.Attach("a", r.probe())
	r.m.Attach("b", health.Probe{Gauges: g2})
	r.e.Spawn("t", func(p *sim.Proc) {
		r.g.G("ftl.gc.debt").Set(9)
		g2.G("ftl.gc.debt").Set(9)
		p.Sleep(15 * sim.Microsecond)
		r.g.G("ftl.gc.debt").Set(9)
	})
	r.e.Run()
	log := r.m.Transitions()
	if len(log) != 2 || log[0].Dev != 0 || log[1].Dev != 1 || log[0].At != log[1].At {
		t.Fatalf("same-tick transitions must log in device order: %v", log)
	}
	if log[0].Name != "a" || log[1].Name != "b" {
		t.Fatalf("names = %q,%q", log[0].Name, log[1].Name)
	}
}

func TestMonitorIgnoresUnstripedMisses(t *testing.T) {
	// Benign reconstruction misses on pages RAIN never covered must not
	// move the score — only real protection failures escalate.
	r := newRig(health.Config{Interval: 10 * sim.Microsecond, DegradedScore: 4, CriticalScore: 100, ClearTicks: 5})
	r.m.Attach("dev", r.probe())
	r.e.Spawn("t", func(p *sim.Proc) {
		r.rain.ReconstructUnstriped += 50
		p.Sleep(100 * sim.Microsecond)
	})
	r.e.Run()
	r.m.Advance()
	if got := r.m.State(0); got != health.Healthy {
		t.Fatalf("unstriped misses escalated the device to %v", got)
	}
	if n := len(r.m.Transitions()); n != 0 {
		t.Fatalf("want no transitions, got %d", n)
	}
}

// hysteresisRun drives one fixed scenario and returns the signature.
func hysteresisRun(burst int64) uint64 {
	r := newRig(health.Config{Interval: 10 * sim.Microsecond, DegradedScore: 4, CriticalScore: 100, ClearTicks: 3})
	r.m.Attach("dev", r.probe())
	r.e.Spawn("t", func(p *sim.Proc) {
		r.rain.DegradedReads += burst
		p.Sleep(20 * sim.Microsecond)
		r.g.G("ftl.gc.debt").Set(0)
		p.Sleep(80 * sim.Microsecond)
	})
	r.e.Run()
	r.m.Advance()
	return r.m.Signature()
}

func TestMonitorSignatureDeterministic(t *testing.T) {
	a, b := hysteresisRun(3), hysteresisRun(3)
	if a != b {
		t.Fatalf("same scenario gave signatures %x and %x", a, b)
	}
	if c := hysteresisRun(60); c == a {
		t.Fatal("a different scenario produced an identical signature")
	}
}

func TestMonitorForceRecordsAndNotifies(t *testing.T) {
	// Force (failure drills, tests) must flow through the same
	// transition log and OnTransition path as scored changes, and be a
	// no-op when the state already matches.
	r := newRig(health.Config{})
	r.m.Attach("dev", health.Probe{Gauges: r.g})
	var calls int
	r.m.OnTransition(func(dev int, from, to health.State) {
		calls++
		if dev != 0 || from != health.Healthy || to != health.Critical {
			t.Fatalf("callback saw dev=%d %v->%v", dev, from, to)
		}
	})
	r.m.Force(0, health.Critical)
	r.m.Force(0, health.Critical) // same state: no-op
	if r.m.State(0) != health.Critical || calls != 1 {
		t.Fatalf("state=%v calls=%d", r.m.State(0), calls)
	}
	log := r.m.Transitions()
	if len(log) != 1 || log[0].Score != -1 {
		t.Fatalf("forced transition must log with score -1: %v", log)
	}
}
