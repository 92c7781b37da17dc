package db

import (
	"errors"
	"strings"
	"testing"

	"biscuit"
	"biscuit/internal/fault"
)

// Fault-plan tests: the query engine must deliver byte-identical
// results under injected media faults, degrading transparently from
// NDP offload to the Conv path when the device-side scan dies.

// scanPlan is hot enough that a multi-page device-side scan is all but
// guaranteed to exhaust the FTL's read retries at least once (per-page
// survival is (1-u^4) on the matcher path), while the Conv fallback —
// shielded by command-level retries on top of the FTL's — still
// succeeds (per-page failure u^15 ≈ 5e-4).
var scanPlan = fault.Plan{Seed: 1, UncorrectableProb: 0.6}

func faultSys(plan fault.Plan) *biscuit.System {
	cfg := biscuit.DefaultConfig()
	cfg.NAND.BlocksPerDie = 128
	cfg.NAND.PagesPerBlock = 32
	cfg.Fault = plan
	return biscuit.NewSystem(cfg)
}

func renderRows(rows []Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		var parts []string
		for _, v := range r {
			parts = append(parts, v.String())
		}
		out[i] = strings.Join(parts, "|")
	}
	return out
}

func sameRows(t *testing.T, got, want []Row) {
	t.Helper()
	g, w := renderRows(got), renderRows(want)
	if len(g) != len(w) {
		t.Fatalf("row count %d, want %d", len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("row %d = %q, want %q", i, g[i], w[i])
		}
	}
}

// ndpFixtureScan loads the standard fixture and runs the offloaded
// needle scan, returning the rows and the executor for stats.
func ndpFixtureScan(t *testing.T, sys *biscuit.System) ([]Row, *Exec) {
	t.Helper()
	d := Open(sys)
	var rows []Row
	var ex *Exec
	sys.Run(func(h *biscuit.Host) {
		tab := loadFixture(t, h, d, 2000, 50)
		ex = NewExec(h, d)
		var err error
		rows, err = Collect(ex.NewNDPScan(tab, []string{"TARGETKEY"}, EqS(tab.Sch, "note", "TARGETKEY")))
		if err != nil {
			t.Fatalf("scan must survive the fault plan: %v", err)
		}
	})
	return rows, ex
}

func TestNDPScanFallsBackAndMatchesFaultFree(t *testing.T) {
	want, cleanEx := ndpFixtureScan(t, quickSys())
	if cleanEx.St.NDPFallbacks != 0 {
		t.Fatal("fault-free run must not fall back")
	}
	if len(want) == 0 {
		t.Fatal("fixture scan found no rows; test exercises nothing")
	}

	sys := faultSys(scanPlan)
	got, ex := ndpFixtureScan(t, sys)
	sameRows(t, got, want)
	if ex.St.NDPFallbacks < 1 {
		t.Fatalf("NDPFallbacks=%d; the plan never killed the device scan, so the degradation path went untested", ex.St.NDPFallbacks)
	}
	if n := sys.Plat.Ctrs.Get("db.ndp.fallback"); n < 1 {
		t.Fatalf("platform counter db.ndp.fallback=%d, want >=1", n)
	}
	if sys.Plat.Inj.Count(fault.Fallback) < 1 {
		t.Fatal("injector event log missing the fallback consequence")
	}
	if sys.Plat.Inj.Count(fault.ReadUncorrectable) == 0 {
		t.Fatal("plan injected no uncorrectable errors")
	}
}

func TestNDPScanFaultFallbackDeterminism(t *testing.T) {
	run := func() ([]string, string, int64) {
		sys := faultSys(scanPlan)
		rows, ex := ndpFixtureScan(t, sys)
		return renderRows(rows), sys.Plat.Inj.Signature(), ex.St.NDPFallbacks
	}
	r1, sig1, fb1 := run()
	r2, sig2, fb2 := run()
	if sig1 != sig2 {
		t.Fatal("same-seed fault schedules diverged")
	}
	if fb1 != fb2 {
		t.Fatalf("fallback counts diverged: %d vs %d", fb1, fb2)
	}
	if len(r1) != len(r2) {
		t.Fatalf("row counts diverged: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("row %d diverged: %q vs %q", i, r1[i], r2[i])
		}
	}
}

func TestConvScanSurvivesBackgroundFaultPlan(t *testing.T) {
	// The paper-calibrated default plan (low-probability correctable and
	// uncorrectable noise, timeouts, stalls) must be fully absorbed by
	// the retry ladder on the Conv path.
	want, _ := ndpFixtureScan(t, quickSys())
	sys := faultSys(fault.DefaultPlan(23))
	d := Open(sys)
	sys.Run(func(h *biscuit.Host) {
		tab := loadFixture(t, h, d, 2000, 50)
		ex := NewExec(h, d)
		got, err := Collect(ex.NewConvScan(tab, EqS(tab.Sch, "note", "TARGETKEY")))
		if err != nil {
			t.Fatalf("conv scan under default plan: %v", err)
		}
		sameRows(t, got, want)
	})
	if sys.Plat.Inj.Total() == 0 {
		t.Fatal("default plan injected nothing over a full load+scan")
	}
}

// An aggregate scan cannot fall back (the device holds the partial
// state), so when its consumer stops before reading, the media error
// surfaces from Close — exactly once: the application is reaped on the
// first Close, and a second Close is a no-op like every other
// iterator's.
func TestNDPAggCloseReportsMediaErrorOnce(t *testing.T) {
	sys := faultSys(scanPlan)
	d := Open(sys)
	sys.Run(func(h *biscuit.Host) {
		tab := loadFixture(t, h, d, 2000, 50)
		ex := NewExec(h, d)
		it := ex.NewNDPAggScan(tab, []string{"TARGETKEY"}, EqS(tab.Sch, "note", "TARGETKEY"),
			nil, []Agg{{F: CountAgg, Name: "n"}})
		if err := it.Open(); err != nil {
			t.Fatal(err)
		}
		if err := it.Close(); !errors.Is(err, fault.ErrUncorrectable) {
			t.Fatalf("first Close = %v, want an uncorrectable media error", err)
		}
		if err := it.Close(); err != nil {
			t.Fatalf("second Close = %v, want nil", err)
		}
		// A consumer that drains the scan sees the error at end of
		// stream instead; there is no Conv fallback to hide it.
		if _, err := Collect(it); !errors.Is(err, fault.ErrUncorrectable) {
			t.Fatalf("Collect = %v, want an uncorrectable media error", err)
		}
	})
}
