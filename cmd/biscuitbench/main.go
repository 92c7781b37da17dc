// Command biscuitbench regenerates the paper's tables and figures on the
// simulated platform and prints them in the paper's layout.
//
// Usage:
//
//	biscuitbench -exp all
//	biscuitbench -exp table2,table3
//	biscuitbench -exp fig10 -sf 0.02 -joinbuf 512
//	biscuitbench -exp fig9 -csv fig9.csv
//	biscuitbench -exp fig8 -json out/      # writes out/BENCH_fig8.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"biscuit"
	"biscuit/internal/bench"
)

func main() {
	var (
		exps     = flag.String("exp", "all", "comma-separated experiments: simcore,table2,table3,fig7,table4,table5,fig8,fig9,fig10,faultcurve,servecurve,healcurve")
		sf       = flag.Float64("sf", 0, "TPC-H scale factor override for fig8/fig9/fig10")
		joinbuf  = flag.Int("joinbuf", 0, "join buffer rows override for fig10")
		quick    = flag.Bool("quick", false, "use reduced experiment sizes")
		csv      = flag.String("csv", "", "write fig7/fig9/fig10 series as CSV to this file")
		jsonDir  = flag.String("json", "", "write each experiment's result struct as BENCH_<exp>.json into this directory")
		traceOut = flag.String("trace", "", "write a Chrome/Perfetto trace per simulated platform: <path>, <path>.2, ...")
		stats    = flag.Bool("stats", false, "dump each platform's counters and latency percentiles at exit")
	)
	flag.Parse()

	// Every experiment builds its platforms through bench.newSystem; the
	// hook sees each one, so tracing and counter dumps need no per-
	// experiment plumbing. Traces are written after all runs finish —
	// every simulation is driven to completion inside its Run function.
	var systems []*biscuit.System
	if *traceOut != "" || *stats {
		bench.OnSystem = func(s *biscuit.System) {
			if *traceOut != "" {
				s.NewTracer()
			}
			systems = append(systems, s)
		}
		defer func() {
			for i, s := range systems {
				if *traceOut != "" {
					path := *traceOut
					if i > 0 {
						path = fmt.Sprintf("%s.%d", *traceOut, i+1)
					}
					if err := s.Tracer().WriteFile(path); err != nil {
						fmt.Fprintln(os.Stderr, "trace:", err)
						os.Exit(1)
					}
					fmt.Printf("wrote %s (load in https://ui.perfetto.dev)\n", path)
				}
				if *stats {
					fmt.Printf("-- platform %d\n", i+1)
					s.Plat.WriteStats(os.Stdout)
				}
			}
		}()
	}

	cfg := bench.DefaultConfig()
	if *quick {
		cfg = bench.QuickConfig()
	}
	if *sf > 0 {
		cfg.Fig8SF = *sf
		cfg.Fig10SF = *sf
	}
	if *joinbuf > 0 {
		cfg.JoinBufferRows = *joinbuf
	}

	want := map[string]bool{}
	for _, e := range strings.Split(*exps, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]

	var csvOut strings.Builder

	if all || want["simcore"] {
		sc := bench.RunSimCore()
		writeJSON(*jsonDir, "simcore", sc)
		fmt.Println("Simulator core — DES kernel throughput (not a paper figure; see DESIGN.md \"Simulator performance\")")
		fmt.Printf("  %-12s %10s %12s %14s %10s %10s\n", "scenario", "ops", "events/s", "allocs/op", "final-sim", "vs-ref")
		for _, s := range sc.Scenarios {
			ref := "-"
			if s.SpeedupVsRef > 0 {
				ref = fmt.Sprintf("%.2fx", s.SpeedupVsRef)
			}
			fmt.Printf("  %-12s %10d %12.3g %14.4f %10v %10s\n",
				s.Name, s.Ops, s.EventsPerSec, s.AllocsPerOp, s.FinalSim, ref)
		}
		fmt.Println()
	}
	if all || want["table2"] {
		t2 := bench.RunTable2()
		writeJSON(*jsonDir, "table2", t2)
		fmt.Println("Table II — measured latency for different I/O port types")
		fmt.Printf("  %-18s %-10s %-14s %-12s\n", "Host-to-device", "", "Inter-SSDlet", "Inter-app.")
		fmt.Printf("  %-8s %-9s\n", "H2D", "D2H")
		fmt.Printf("  %-8.1f %-9.1f %-14.1f %-12.1f  (us; paper: 301.6 / 130.1 / 31.0 / 10.7)\n\n",
			t2.H2D.Micros(), t2.D2H.Micros(), t2.InterSSDlet.Micros(), t2.InterApp.Micros())
	}
	if all || want["table3"] {
		t3 := bench.RunTable3()
		writeJSON(*jsonDir, "table3", t3)
		fmt.Println("Table III — measured data read latency (4 KiB)")
		fmt.Printf("  Conv %.1f us   Biscuit %.1f us   (paper: 90.0 / 75.9)\n\n", t3.Conv.Micros(), t3.Biscuit.Micros())
	}
	if all || want["fig7"] {
		f7 := bench.RunFig7()
		writeJSON(*jsonDir, "fig7", f7)
		fmt.Println("Fig. 7 — read bandwidth vs request size (GB/s)")
		fmt.Printf("  %-10s | %-26s | %-26s\n", "", "synchronous", "asynchronous (QD 32)")
		fmt.Printf("  %-10s | %8s %8s %8s | %8s %8s %8s\n", "req size", "Conv", "Biscuit", "w/ PM", "Conv", "Biscuit", "w/ PM")
		for i := range f7.Sync {
			s, a := f7.Sync[i], f7.Async[i]
			fmt.Printf("  %7dKiB | %8.2f %8.2f %8.2f | %8.2f %8.2f %8.2f\n",
				s.ReqSize>>10, s.Conv, s.Biscuit, s.Matcher, a.Conv, a.Biscuit, a.Matcher)
			csvOut.WriteString(fmt.Sprintf("fig7,%d,%f,%f,%f,%f,%f,%f\n", s.ReqSize, s.Conv, s.Biscuit, s.Matcher, a.Conv, a.Biscuit, a.Matcher))
		}
		fmt.Println()
	}
	if all || want["table4"] {
		t4 := bench.RunTable4(cfg)
		writeJSON(*jsonDir, "table4", t4)
		fmt.Println("Table IV — execution time for pointer chasing (s)")
		printSweep(t4.Rows)
	}
	if all || want["table5"] {
		t5 := bench.RunTable5(cfg)
		writeJSON(*jsonDir, "table5", t5)
		fmt.Printf("Table V — execution time for string matching (s), %d matches\n", t5.Matches)
		printSweep(t5.Rows)
	}
	if all || want["fig8"] {
		f8 := bench.RunFig8(cfg)
		writeJSON(*jsonDir, "fig8", f8)
		fmt.Printf("Fig. 8 — SQL queries on lineitem (SF %.3f, %d reps, mean ± 95%% CI)\n", cfg.Fig8SF, cfg.Fig8Reps)
		pr := func(name string, s bench.Fig8Series) {
			fmt.Printf("  %-12s %10.4fs ± %.4f (%d rows)\n", name, s.MeanS, s.CI95S, s.RowsOut)
		}
		pr("Q1 Conv", f8.Q1Conv)
		pr("Q1 Biscuit", f8.Q1Biscuit)
		fmt.Printf("  Q1 speed-up  %9.1fx (paper: ~11x)\n", f8.Q1Conv.MeanS/f8.Q1Biscuit.MeanS)
		pr("Q2 Conv", f8.Q2Conv)
		pr("Q2 Biscuit", f8.Q2Biscuit)
		fmt.Printf("  Q2 speed-up  %9.1fx (paper: ~10x)\n\n", f8.Q2Conv.MeanS/f8.Q2Biscuit.MeanS)
	}
	if all || want["fig9"] || want["table6"] {
		f9 := bench.RunFig9(cfg)
		writeJSON(*jsonDir, "fig9", f9)
		fmt.Println("Fig. 9 / Table VI — system power during Query 1")
		fmt.Printf("  idle %.0f W\n", f9.IdleW)
		fmt.Printf("  Conv:    exec %.4fs  avg %.1f W  energy %.3f J\n", f9.Conv.ExecS, f9.Conv.AvgW, f9.Conv.EnergyJ)
		fmt.Printf("  Biscuit: exec %.4fs  avg %.1f W  energy %.3f J\n", f9.Biscuit.ExecS, f9.Biscuit.AvgW, f9.Biscuit.EnergyJ)
		fmt.Printf("  energy ratio %.1fx (paper: ~5x)\n\n", f9.Conv.EnergyJ/f9.Biscuit.EnergyJ)
		for i := range f9.Conv.Times {
			csvOut.WriteString(fmt.Sprintf("fig9conv,%f,%f\n", f9.Conv.Times[i].Seconds(), f9.Conv.Watts[i]))
		}
		for i := range f9.Biscuit.Times {
			csvOut.WriteString(fmt.Sprintf("fig9biscuit,%f,%f\n", f9.Biscuit.Times[i].Seconds(), f9.Biscuit.Watts[i]))
		}
	}
	if all || want["fig10"] {
		f10 := bench.RunFig10(cfg)
		writeJSON(*jsonDir, "fig10", f10)
		fmt.Printf("Fig. 10 — TPC-H relative performance (SF %.3f, join buffer %d rows)\n", cfg.Fig10SF, cfg.JoinBufferRows)
		fmt.Printf("  %-4s %-36s %12s %12s %9s %8s  %s\n", "Q", "title", "Conv", "Biscuit", "speedup", "I/O red.", "decision")
		for _, r := range f10.Rows {
			fmt.Printf("  Q%-3d %-36s %12v %12v %8.1fx %7.1fx  %s\n",
				r.Query, r.Title, r.ConvTime, r.BiscTime, r.Speedup, r.IOReduction, r.Reason)
			csvOut.WriteString(fmt.Sprintf("fig10,%d,%f,%f,%f,%f,%v\n",
				r.Query, r.ConvTime.Seconds(), r.BiscTime.Seconds(), r.Speedup, r.IOReduction, r.Offloaded))
		}
		fmt.Printf("  offloaded %d of 22 | geomean(offloaded) %.1fx | top-five mean %.1fx | total %.2fs vs %.2fs = %.1fx\n",
			f10.OffloadedCount, f10.GeoMeanOff, f10.TopFiveMean, f10.TotalConvS, f10.TotalBiscS, f10.TotalSpeedup)
		fmt.Println("  (paper: 8 offloaded, geomean 6.1x, top-five 15.4x, total 3.6x)")
	}

	if all || want["faultcurve"] {
		fc := bench.RunFaultCurve(cfg)
		writeJSON(*jsonDir, "faultcurve", fc)
		fmt.Printf("Fault curve — Q6 availability and latency vs fault intensity (SF %.3f, %d queries/point)\n", fc.SF, cfg.FaultQueries)
		fmt.Printf("  %-9s %-5s %-7s %-5s %-7s %-9s %-9s %-9s %-8s %-7s %-7s %-5s %s\n",
			"intensity", "W", "avail%", "ok", "conv", "p50(ms)", "p95(ms)", "p99(ms)", "ndp-fb", "reconst", "degradd", "scrub", "lost")
		for _, pt := range fc.Points {
			die := ""
			if pt.DieFailed {
				die = " +die"
			}
			w := "auto"
			if pt.Width > 0 {
				w = fmt.Sprintf("%d", pt.Width)
			}
			fmt.Printf("  %-9g %-5s %-7.1f %-5d %-7d %-9.2f %-9.2f %-9.2f %-8d %-7d %-7d %-5d %d%s\n",
				pt.Intensity, w, pt.Availability*100, pt.OK, pt.ConvReruns,
				float64(pt.Lat.P50)/1e6, float64(pt.Lat.P95)/1e6, float64(pt.Lat.P99)/1e6,
				pt.NDPFallbacks, pt.Reconstructs, pt.DegradedReads, pt.ScrubRepairs, pt.LostPages, die)
			csvOut.WriteString(fmt.Sprintf("faultcurve,%g,%d,%f,%d,%d,%d,%d,%d,%d,%d,%d\n",
				pt.Intensity, pt.Width, pt.Availability, pt.OK, pt.ConvReruns,
				pt.Lat.P50, pt.Lat.P95, pt.Lat.P99, pt.Reconstructs, pt.DegradedReads, pt.LostPages))
		}
		fmt.Println()
	}

	if all || want["servecurve"] {
		sc := bench.RunServeCurve(cfg)
		writeJSON(*jsonDir, "servecurve", sc)
		fmt.Printf("Serve curve — multi-tenant array serving (SF %.3f, %.0fms windows)\n",
			sc.SF, float64(sc.WindowNs)/1e6)
		fmt.Printf("  %-8s %-7s %-9s %-9s %-9s | %-24s | %s\n",
			"devices", "policy", "offered", "agg-qps", "rejected", "acme p50/p99(ms) miss", "bolt p50/p99(ms) miss")
		for _, pt := range sc.Points {
			r := pt.Report
			line := fmt.Sprintf("  %-8d %-7s %-9.0f %-9.1f %-9d |", pt.Devices, pt.Policy, pt.OfferedQPS, r.AggThroughputQPS, r.Rejected)
			for _, tr := range r.Tenants {
				line += fmt.Sprintf(" %6.2f /%7.2f %4d    |", float64(tr.Lat.P50)/1e6, float64(tr.Lat.P99)/1e6, tr.DeadlineMisses)
			}
			fmt.Println(line)
			csvOut.WriteString(fmt.Sprintf("servecurve,%d,%s,%g,%f,%d\n",
				pt.Devices, pt.Policy, pt.OfferedQPS, r.AggThroughputQPS, r.Rejected))
		}
		fmt.Println()
	}

	if all || want["healcurve"] {
		hc := bench.RunHealCurve(cfg)
		writeJSON(*jsonDir, "healcurve", hc)
		fmt.Printf("Heal curve — availability vs die-fail time × rebuild × migration (SF %.3f, %.0fms windows)\n",
			hc.SF, float64(hc.WindowNs)/1e6)
		fmt.Printf("  %-9s %-10s %-8s %-7s %-9s %-9s %-6s %-7s %-8s %s\n",
			"fail-frac", "rebuild", "migrate", "avail%", "errors", "p99(ms)", "migr", "transit", "pages", "parity")
		for _, pt := range hc.Points {
			rb := "off"
			if pt.RebuildNs >= 0 {
				rb = fmt.Sprintf("%dus", pt.RebuildNs/1000)
			}
			fmt.Printf("  %-9g %-10s %-8v %-7.1f %-9d %-9.2f %-6d %-7d %-8d %d\n",
				pt.FailFrac, rb, pt.Migrate, pt.Availability*100, pt.Errors,
				float64(pt.WorstP99Ns)/1e6, pt.Migrations, pt.HealthTransitions,
				pt.RebuildPages, pt.RebuildParity)
			csvOut.WriteString(fmt.Sprintf("healcurve,%g,%d,%v,%f,%d,%d,%d,%d\n",
				pt.FailFrac, pt.RebuildNs, pt.Migrate, pt.Availability, pt.Errors,
				pt.WorstP99Ns, pt.Migrations, pt.RebuildPages))
		}
		fmt.Println()
	}

	if *csv != "" && csvOut.Len() > 0 {
		if err := os.WriteFile(*csv, []byte(csvOut.String()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "csv:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *csv)
	}
}

// writeJSON marshals one experiment's result struct to
// <dir>/BENCH_<exp>.json so CI and plotting scripts consume results
// without scraping the human-oriented table output. Durations and
// sim.Time values marshal as integer nanoseconds / picoseconds.
func writeJSON(dir, exp string, v any) {
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "json:", err)
		os.Exit(1)
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "json:", err)
		os.Exit(1)
	}
	path := filepath.Join(dir, "BENCH_"+exp+".json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "json:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", path)
}

func printSweep(rows []bench.LoadSweepRow) {
	fmt.Printf("  %-10s", "#threads")
	for _, r := range rows {
		fmt.Printf(" %9d", r.Threads)
	}
	fmt.Printf("\n  %-10s", "Conv")
	for _, r := range rows {
		fmt.Printf(" %9.4f", r.Conv.Seconds())
	}
	fmt.Printf("\n  %-10s", "Biscuit")
	for _, r := range rows {
		fmt.Printf(" %9.4f", r.Biscuit.Seconds())
	}
	fmt.Print("\n\n")
}
