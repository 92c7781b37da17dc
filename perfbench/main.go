// Command perfbench is the repository's host-time benchmark. One
// process runs one workload at one seed, checks every output against
// its cross-check and stored goldens, and prints the end-to-end metrics
// (untraced) or the per-layer metrics (traced) as one JSON line:
//
//	perfbench --workload tpch22|serve|heal --seed N --seconds S --trace 0|1
//
// The system has two clocks. Host metrics (setup_s, run_s, ...) are
// what the simulator costs and vary run to run; sim metrics are
// deterministic per seed and are the oracle a host-time optimisation
// must leave unchanged. See README.md for the workloads, the metric
// catalogue and the layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

// workloads maps each --workload name to the function that runs it.
var workloads = map[string]func(b *bench) error{
	"tpch22": runTPCH22,
	"serve":  runServe,
	"heal":   runHeal,
}

func main() {
	name := flag.String("workload", "", "workload: tpch22, serve or heal")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "wall-second budget for the passes, set-ups included")
	traced := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	sf := flag.Float64("sf", defaultTPCHSF, "tpch22 TPC-H scale factor (0.02 = internal/bench's Fig. 10 default)")
	out := flag.String("out", ".bench_build/perfbench-out", "directory for the span trace and CPU profile")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *sf, *traced == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, sf float64, traced bool, outDir string) error {
	wl, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	// One P: the simulator runs one fiber at a time, and a second P on
	// a shared host only adds cross-CPU GC and stop-the-world handoffs
	// that stall whenever either CPU is stolen (see README.md).
	runtime.GOMAXPROCS(1)
	b := newBench(name, seed, seconds, sf)
	if !traced {
		if err := wl(b); err != nil {
			return err
		}
		return emit(b, b.endToEnd())
	}

	// Traced run: the untraced workload first, so the tracing overhead
	// and host ns per event are measured in the same process, then the
	// workload again with spans, the CPU profile and (first pass) the
	// counting scheduler hook on.
	if err := wl(b); err != nil {
		return err
	}
	plain := b.runS()
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	profPath := filepath.Join(outDir, name+".cpu.pprof")
	f, err := os.Create(profPath)
	if err != nil {
		return err
	}
	t := newBench(name, seed, seconds, sf)
	t.attempted, t.failed, t.problems = b.attempted, b.failed, b.problems
	t.spans = newSpanLog(fmt.Sprintf("%s-%d-%d", name, seed, time.Now().UnixNano()))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	werr := wl(t)
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&m1)
	t.counts["runtime.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	t.counts["runtime.gc_pause_s"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e9
	if err := f.Close(); err != nil {
		return err
	}
	if werr != nil {
		return werr
	}
	if err := t.spans.write(filepath.Join(outDir, name+".spans.json")); err != nil {
		return err
	}
	stacks, err := readProfile(profPath)
	if err != nil {
		return err
	}
	m := t.perLayer(stacks, plain)
	return emit(t, m)
}

// emit prints the human-readable lines, then the result object as the
// last line of standard output.
func emit(b *bench, m metrics) error {
	for _, line := range b.notes {
		fmt.Println(line)
	}
	for _, p := range b.problems {
		fmt.Println("MISMATCH:", p)
	}
	if err := m.validate(); err != nil {
		return err
	}
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-32s %g %s\n", n, m[n].Value, m[n].Unit)
	}
	res := struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{len(b.problems) == 0 && b.failed == 0, b.attempted, b.failed, m}
	js, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(js))
	if !res.Correct {
		return fmt.Errorf("%s: %d mismatches, %d failed operations", b.name, len(b.problems), b.failed)
	}
	return nil
}
