package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"
	"time"

	"biscuit/internal/db"
)

func TestMetricNameValidation(t *testing.T) {
	for _, name := range []string{"run_s", "db.self_share", "ftl.rain.reconstructs", "9lives", "a-b.c_d"} {
		if err := (metrics{name: {1, "s"}}).validate(); err != nil {
			t.Errorf("%q rejected: %v", name, err)
		}
	}
	long := fmt.Sprintf("%065d", 0)
	for _, name := range []string{"", "run s", "db/self", ".lead", "_lead", "naïve", long} {
		if err := (metrics{name: {1, "s"}}).validate(); err == nil {
			t.Errorf("%q accepted", name)
		}
	}
	for _, unit := range []string{"ms", "1/s", "%", "count", "B"} {
		if err := (metrics{"x": {1, unit}}).validate(); err != nil {
			t.Errorf("unit %q rejected: %v", unit, err)
		}
	}
	for _, unit := range []string{"", "m s", "abcdefghijklmnopq"} {
		if err := (metrics{"x": {1, unit}}).validate(); err == nil {
			t.Errorf("unit %q accepted", unit)
		}
	}
	if err := (metrics{"x": {math.NaN(), "s"}}).validate(); err == nil {
		t.Error("NaN accepted")
	}
}

func TestRowSetDigestDetectsCorruption(t *testing.T) {
	rows := func() []db.Row {
		return []db.Row{
			{db.Int(1), db.Str("BUILDING"), db.Dec(12345), db.MustDate("1994-01-01")},
			{db.Int(2), db.Str("MACHINERY"), db.Dec(-5), db.MustDate("1995-06-17")},
			{db.Int(3), db.Str(""), db.Dec(0), db.MustDate("1998-12-01")},
		}
	}
	want := rowSetDigest(rows())

	reordered := rows()
	reordered[0], reordered[2] = reordered[2], reordered[0]
	if got := rowSetDigest(reordered); got != want {
		t.Errorf("row order changed the digest: %016x != %016x", got, want)
	}

	corrupt := []func(r []db.Row){
		func(r []db.Row) { r[1][2] = db.Dec(-4) },                // one cent
		func(r []db.Row) { r[0][1] = db.Str("BUILDINH") },        // one byte
		func(r []db.Row) { r[2][0] = db.Dec(3) },                 // same number, other type
		func(r []db.Row) { r[1] = r[1][:3] },                     // dropped cell
		func(r []db.Row) { r[2][1], r[2][2] = r[2][2], r[2][1] }, // swapped cells
	}
	for i, c := range corrupt {
		r := rows()
		c(r)
		if rowSetDigest(r) == want {
			t.Errorf("corruption %d not detected", i)
		}
	}
	if rowSetDigest(rows()[:2]) == want {
		t.Error("dropped row not detected")
	}
	if rowSetDigest(append(rows(), rows()[0])) == want {
		t.Error("duplicated row not detected")
	}
	// Cell boundaries are encoded: moving bytes between adjacent
	// strings must change the digest.
	a := rowSetDigest([]db.Row{{db.Str("ab"), db.Str("c")}})
	b := rowSetDigest([]db.Row{{db.Str("a"), db.Str("bc")}})
	if a == b {
		t.Error("string boundary not encoded")
	}
}

func TestGoldenMismatchFailsTheRun(t *testing.T) {
	g, err := goldens()
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range []string{"tpch22", "serve", "heal"} {
		want, ok := g[wl]["1"]
		if !ok || len(want) == 0 {
			t.Fatalf("no goldens for %s seed 1", wl)
		}
		if len(g[wl]) < 2 {
			t.Errorf("%s: goldens for %d seeds, want the default and a held-out seed", wl, len(g[wl]))
		}
		got := digests{}
		for k, v := range want {
			got[k] = v
		}
		b := newBench(wl, 1, 0, defaultTPCHSF)
		if err := b.checkGoldens(got); err != nil {
			t.Fatal(err)
		}
		if len(b.problems) != 0 {
			t.Fatalf("%s: matching digests reported: %v", wl, b.problems)
		}
		for k := range got {
			got[k] = "0000000000000000"
			break
		}
		if err := b.checkGoldens(got); err != nil {
			t.Fatal(err)
		}
		if len(b.problems) != 1 {
			t.Errorf("%s: corrupted digest gave %d problems, want 1", wl, len(b.problems))
		}
	}
}

func TestLayerBucketing(t *testing.T) {
	stacks := []stack{
		// memmove under the join: charged to db, its caller.
		{10 * time.Millisecond, []string{
			"runtime.memmove",
			"biscuit/internal/db.(*BNLJoin).NextBatch",
			"biscuit/internal/tpch.q9",
			"biscuit.(*System).Run.func1",
			"biscuit/internal/sim.(*Env).Spawn.func1",
			"runtime.goexit",
		}},
		// db/planner is its own layer.
		{20 * time.Millisecond, []string{
			"biscuit/internal/db/planner.(*Planner).SampleSelectivity",
			"biscuit/internal/db.(*Exec).Scan",
			"main.runQueries.func1",
		}},
		// no biscuit frame at all: GC worker.
		{30 * time.Millisecond, []string{"runtime.gcBgMarkWorker", "runtime.goexit"}},
		// an internal package outside the layer list.
		{40 * time.Millisecond, []string{"biscuit/internal/graph.Walk", "main.main"}},
	}
	self, cum := layerShares(stacks)
	wantSelf := map[string]float64{"db": 0.1, "planner": 0.2, "runtime": 0.3, "other": 0.4}
	for l, w := range wantSelf {
		if math.Abs(self[l]-w) > 1e-9 {
			t.Errorf("self[%s] = %g, want %g", l, self[l], w)
		}
	}
	var sum float64
	for _, v := range self {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("self shares sum to %g", sum)
	}
	wantCum := map[string]float64{"db": 0.3, "tpch": 0.1, "sim": 0.1, "planner": 0.2, "perfbench": 0.6, "runtime": 0.3, "other": 0.4}
	for l, w := range wantCum {
		if math.Abs(cum[l]-w) > 1e-9 {
			t.Errorf("cum[%s] = %g, want %g", l, cum[l], w)
		}
	}
}

func TestParseTraces(t *testing.T) {
	out := []byte(`File: perfbench
Type: cpu
Duration: 1s, Total samples = 40ms ( 4.00%)
-----------+-------------------------------------------------------
      30ms   runtime.memmove
             biscuit/internal/db.(*BNLJoin).NextBatch (inline)
             main.main
-----------+-------------------------------------------------------
      10ms   runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
`)
	stacks, err := parseTraces(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(stacks) != 2 || stacks[0].weight != 30*time.Millisecond || len(stacks[0].frames) != 3 ||
		stacks[0].frames[1] != "biscuit/internal/db.(*BNLJoin).NextBatch" || stacks[1].weight != 10*time.Millisecond {
		t.Fatalf("parsed %+v", stacks)
	}
	if _, err := parseTraces([]byte("File: x\n")); err == nil {
		t.Error("empty profile accepted")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1}, 0, 3, 6},
		{[]float64{0.9, 1.1, 1.0, 1.3, 0.7, 1.2, 1.05}, 0.9, 1.05, 1.2},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %g", m)
	}
	if p := percentile([]float64{5, 1, 4, 2, 3}, 99); p != 5 {
		t.Errorf("p99 = %g", p)
	}
	if p := percentile([]float64{5, 1, 4, 2, 3}, 50); p != 3 {
		t.Errorf("p50 = %g", p)
	}
}

// TestTypicalPass checks that a pass's cost is taken call by call:
// one call inflated in one pass, as a flipped planner choice or a burst
// of host noise would, drops out of that call's median.
func TestTypicalPass(t *testing.T) {
	b := newBench("tpch22", 1, 0, defaultTPCHSF)
	for pass, slow := range []string{"", "q2", "q1"} {
		for _, q := range []string{"q1", "q2"} {
			wall := 1.0
			if q == slow {
				wall = 5
			}
			_ = b.measure("run", map[string]any{"query": q}, func() error { return nil })
			c := b.cur[fmt.Sprint("run ", map[string]any{"query": q})]
			c.wall = wall
			c.allocBytes = uint64(100 * (pass + 1))
			b.cur[fmt.Sprint("run ", map[string]any{"query": q})] = c
		}
		b.endPass()
	}
	got := b.typical()
	if got.wall != 2 {
		t.Errorf("typical wall = %g, want 2 (each call's median is 1)", got.wall)
	}
	if got.allocBytes != 400 {
		t.Errorf("typical alloc = %d, want 400 (median 200 per call)", got.allocBytes)
	}
	if w := b.runS(); w != got.wall {
		t.Errorf("runS = %g, typical wall = %g", w, got.wall)
	}
}

// TestMetricsMatchBenchmarkJSON pins the printed metric names and
// units to the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	b := newBench("tpch22", 1, 0, defaultTPCHSF)
	for name, m := range map[string]metrics{
		"end_to_end": b.endToEnd(),
		"per_layer":  b.perLayer([]stack{{time.Millisecond, []string{"runtime.main"}}}, 1),
	} {
		want := spec.EndToEnd
		if name == "per_layer" {
			want = spec.PerLayer
		}
		if len(m) != len(want) {
			t.Errorf("%s: program prints %d metrics, BENCHMARK.json declares %d", name, len(m), len(want))
		}
		for _, w := range want {
			if got, ok := m[w.Name]; !ok || got.Unit != w.Unit {
				t.Errorf("%s: %s: program prints %+v (present %v), BENCHMARK.json says unit %q", name, w.Name, got, ok, w.Unit)
			}
		}
		if err := m.validate(); err != nil {
			t.Error(err)
		}
	}
}
