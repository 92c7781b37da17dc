package main

import (
	"fmt"

	"biscuit/internal/serve"
	"biscuit/internal/sim"
	"biscuit/internal/telemetry"
)

// serve sizes: a two-device array under WFQ, one fresh array per rung
// of the offered-rate ladder, from well inside capacity to overload.
const (
	serveSF      = 0.002
	serveDevices = 2
	serveWindow  = 250 * sim.Millisecond
)

var serveLadder = []float64{150, 300, 600, 1200}

// heal sizes: internal/bench's healcurve point with rebuild and
// migration on and the die failing at 30% of the window.
const (
	healSF          = 0.002
	healWindow      = 250 * sim.Millisecond
	healQPS         = 300
	healFailFrac    = 0.3
	healWeblogBytes = 2 << 20
)

// serveConfig is one ladder rung: "acme" runs Q6 (weight 2, 50 ms SLO)
// and "bolt" point lookups (25 ms SLO), splitting qps 40:60.
func serveConfig(seed int64, qps float64) serve.Config {
	return serve.Config{
		SF:      serveSF,
		Devices: serveDevices,
		Policy:  "wfq",
		Window:  serveWindow,
		Seed:    seed,
		Tenants: []serve.TenantConfig{
			{Name: "acme", Workload: "q6", RateQPS: 0.4 * qps, Deterministic: true, Weight: 2, SLO: 50 * sim.Millisecond},
			{Name: "bolt", Workload: "qpoint", RateQPS: 0.6 * qps, Deterministic: true, SLO: 25 * sim.Millisecond},
		},
	}
}

// healConfig is the self-healing window: "acme" Q6 across both
// devices, "bolt" point lookups pinned to the healthy device 1, "wisp"
// grepping the sharded web log; die 1 of device 0 fails mid-window.
func healConfig(seed int64) serve.Config {
	return serve.Config{
		SF:          healSF,
		Devices:     2,
		Policy:      "wfq",
		Window:      healWindow,
		Seed:        seed,
		Heal:        true,
		Migrate:     true,
		WeblogBytes: healWeblogBytes,
		FailAt:      sim.Time(healFailFrac * float64(healWindow)),
		FailDevice:  0,
		FailDie:     1,
		Tenants: []serve.TenantConfig{
			{Name: "acme", Workload: "q6", RateQPS: 0.5 * healQPS, Deterministic: true, Weight: 2, SLO: 50 * sim.Millisecond},
			{Name: "bolt", Workload: "qpoint", RateQPS: 0.3 * healQPS, Deterministic: true, SLO: 25 * sim.Millisecond, Devices: []int{1}},
			{Name: "wisp", Workload: "wlog", RateQPS: 0.2 * healQPS, Deterministic: true, SLO: 100 * sim.Millisecond},
		},
	}
}

// window builds a fresh array (set-up) and serves one window on it
// (measured), with gauge sampling on and, in the traced run's first
// pass, the counting scheduler hook.
func (b *bench) window(cfg serve.Config, label string) (*serve.Report, error) {
	var s *serve.Server
	err := b.setup(func() error {
		return b.call("serve.New", map[string]any{"window": label}, func() error {
			var err error
			s, err = serve.New(cfg)
			return err
		})
	})
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", b.name, label, err)
	}
	s.EnableTelemetry(telemetry.DefaultInterval)
	first := b.first()
	if first && b.spans != nil {
		s.MS.Env.SetSchedHook(b.countEvent)
	}
	before := deviceCounts(s.MS.Systems)
	var rep *serve.Report
	_ = b.measure("serve.Server.Run", map[string]any{"window": label}, func() error {
		rep = s.Run()
		return nil
	})
	if first {
		b.addDeviceCounts(s.MS.Systems, before)
		b.reportCounts(rep)
	}
	b.attempted += offered(rep)
	b.failed += errorsOf(rep)
	return rep, nil
}

// runServe serves the rate ladder, pass after pass. Sim-clock outcomes
// come from the first pass: latency at the in-capacity rung (the first),
// capacity as the highest rung where every tenant meets its SLO at
// p99 with no rejections.
func runServe(b *bench) error {
	for b.more() {
		first := b.first()
		got := digests{}
		var okQueries, offeredAll int
		inCapacity := true
		for i, qps := range serveLadder {
			label := fmt.Sprintf("%gqps", qps)
			rep, err := b.window(serveConfig(b.passSeed(), qps), label)
			if err != nil {
				return err
			}
			b.checkAccounting(rep, label)
			if !first {
				continue
			}
			addReportDigests(got, rep, label)
			okQueries += rep.Completed - errorsOf(rep)
			offeredAll += offered(rep)
			p50, p99 := worstLatency(rep)
			if i == 0 {
				b.counts["simclock.p50_ms"], b.counts["simclock.p99_ms"] = p50, p99
			}
			inCapacity = inCapacity && meetsSLO(rep)
			if inCapacity {
				b.counts["simclock.capacity_qps"] = qps
			}
			b.notes = append(b.notes, fmt.Sprintf("serve %6.0f qps: completed %d rejected %d misses %d worst p50 %.2f ms p99 %.2f ms",
				qps, rep.Completed, rep.Rejected, misses(rep), p50, p99))
		}
		if first {
			if err := b.checkGoldens(got); err != nil {
				return err
			}
			b.okShare = float64(okQueries-len(b.problems)) / float64(offeredAll)
		}
		b.endPass()
	}
	return nil
}

// runHeal serves the self-healing window, pass after pass.
func runHeal(b *bench) error {
	for b.more() {
		first := b.first()
		rep, err := b.window(healConfig(b.passSeed()), "heal")
		if err != nil {
			return err
		}
		b.checkAccounting(rep, "heal")
		if first {
			got := digests{}
			addReportDigests(got, rep, "heal")
			got.set("heal.health", rep.HealthDigest)
			if err := b.checkGoldens(got); err != nil {
				return err
			}
			p50, p99 := worstLatency(rep)
			b.counts["simclock.p50_ms"], b.counts["simclock.p99_ms"] = p50, p99
			good := 0
			for _, t := range rep.Tenants {
				good += t.Completed - t.Errors - t.DeadlineMisses
			}
			b.counts["simclock.capacity_qps"] = float64(good) / healWindow.Seconds()
			b.okShare = float64(rep.Completed-errorsOf(rep)-len(b.problems)) / float64(offered(rep))
			b.notes = append(b.notes, fmt.Sprintf("heal: completed %d of %d, errors %d, migrations %d, health transitions %d, worst p50 %.2f ms p99 %.2f ms",
				rep.Completed, offered(rep), errorsOf(rep), len(rep.Migrations), rep.HealthTransitions, p50, p99))
		}
		b.endPass()
	}
	return nil
}

// checkAccounting cross-checks a report's own books: every offered
// query was admitted or rejected, and every admitted one completed.
func (b *bench) checkAccounting(rep *serve.Report, label string) {
	for _, t := range rep.Tenants {
		b.check(t.Offered == t.Admitted+t.Rejected, "%s %s: offered %d != admitted %d + rejected %d",
			label, t.Name, t.Offered, t.Admitted, t.Rejected)
		b.check(t.Admitted == t.Completed, "%s %s: admitted %d != completed %d", label, t.Name, t.Admitted, t.Completed)
	}
}

func addReportDigests(got digests, rep *serve.Report, label string) {
	got.set(label+".dispatch", rep.DispatchDigest)
	for _, t := range rep.Tenants {
		got.set(label+"."+t.Name+".rows", t.RowDigest)
	}
}

// reportCounts adds a report's serving counts to the per-layer counts.
func (b *bench) reportCounts(rep *serve.Report) {
	for _, t := range rep.Tenants {
		b.counts["serve.offered"] += float64(t.Offered)
		b.counts["serve.rejected"] += float64(t.Rejected)
		b.counts["serve.completed"] += float64(t.Completed)
		b.counts["serve.errors"] += float64(t.Errors)
		b.counts["serve.deadline_misses"] += float64(t.DeadlineMisses)
		b.counts["serve.migrations"] += float64(t.Migrations)
	}
	b.counts["health.transitions"] += float64(rep.HealthTransitions)
}

// worstLatency is the worst tenant's sojourn p50 and p99, in ms.
func worstLatency(rep *serve.Report) (p50, p99 float64) {
	for _, t := range rep.Tenants {
		p50 = max(p50, float64(t.Lat.P50)/1e6)
		p99 = max(p99, float64(t.Lat.P99)/1e6)
	}
	return p50, p99
}

// meetsSLO reports whether every tenant met its SLO at p99 with no
// rejections.
func meetsSLO(rep *serve.Report) bool {
	for _, t := range rep.Tenants {
		if t.Rejected > 0 || t.Lat.P99 > t.SLONs {
			return false
		}
	}
	return true
}

func offered(rep *serve.Report) (n int) {
	for _, t := range rep.Tenants {
		n += t.Offered
	}
	return n
}

func errorsOf(rep *serve.Report) (n int) {
	for _, t := range rep.Tenants {
		n += t.Errors
	}
	return n
}

func misses(rep *serve.Report) (n int) {
	for _, t := range rep.Tenants {
		n += t.DeadlineMisses
	}
	return n
}
