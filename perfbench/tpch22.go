package main

import (
	"fmt"
	"math"
	"runtime"

	"biscuit"
	"biscuit/internal/db"
	"biscuit/internal/db/planner"
	"biscuit/internal/sim"
	"biscuit/internal/stats"
	"biscuit/internal/tpch"
)

// tpch22 sizes: internal/bench's Fig. 10 geometry and join buffer at
// half its scale factor. At SF 0.02 (--sf 0.02) one pass takes 17-22 s
// and the planner's offload choices flip with the data seed, moving a
// pass's host cost by a quarter; at 0.01 a pass takes 5-6 s, so a run
// repeats it over several data sets (see passSeed).
const (
	defaultTPCHSF  = 0.01
	joinBufferRows = 512
)

// The paper's Fig. 10 headline numbers (§V-C).
const (
	paperTotalSpeedup   = 3.6
	paperGeomeanSpeedup = 6.1
	paperOffloaded      = 8
)

// runTPCH22 runs passes of the 22 queries back to back under Conv and
// then under the default offload planner, as a closed loop. Each pass
// first loads its own TPC-H data set on a fresh SSD (set-up).
func runTPCH22(b *bench) error {
	queries := tpch.All()
	for b.more() {
		sys, data, err := loadTPCH(b)
		if err != nil {
			return fmt.Errorf("tpch22 set-up: %w", err)
		}
		first := b.first()
		systems := []*biscuit.System{sys}
		before := deviceCounts(systems)
		if first && b.spans != nil {
			sys.Env.SetSchedHook(b.countEvent)
		}
		conv, err := runQueries(b, sys, data, queries, "conv", nil)
		if err != nil {
			return err
		}
		ndp, err := runQueries(b, sys, data, queries, "ndp", planner.Default)
		if err != nil {
			return err
		}
		for i, q := range queries {
			b.attempted += 2
			b.check(conv[i].digest == ndp[i].digest,
				"Q%d: Conv rows %016x (%d) != Biscuit rows %016x (%d)",
				q.ID, conv[i].digest, conv[i].rows, ndp[i].digest, ndp[i].rows)
		}
		if first {
			sys.Env.SetSchedHook(nil)
			if err := b.tpchResults(queries, conv, ndp); err != nil {
				return err
			}
			b.addDeviceCounts(systems, before)
		}
		b.endPass()
	}
	return nil
}

// loadTPCH builds the Fig. 10 platform and loads the pass's data set.
// The previous pass's platform is collected first, so every pass
// starts from the same live heap. Its memory is not returned to the
// OS: re-faulting it made the resident peak climb pass after pass.
func loadTPCH(b *bench) (sys *biscuit.System, data *tpch.Data, err error) {
	runtime.GC()
	err = b.setup(func() error {
		cfg := biscuit.DefaultConfig()
		cfg.NAND.BlocksPerDie = 512
		cfg.NAND.PagesPerBlock = 64
		_ = b.call("biscuit.NewSystem", nil, func() error { sys = biscuit.NewSystem(cfg); return nil })
		var d *db.Database
		_ = b.call("db.Open", nil, func() error { d = db.Open(sys); return nil })
		var lerr error
		sys.Run(func(h *biscuit.Host) {
			lerr = b.call("tpch.Gen.Load", nil, func() error {
				var err error
				data, err = tpch.Gen{SF: b.sf}.Load(h, d, biscuit.SeededRand(b.passSeed()))
				return err
			})
		})
		return lerr
	})
	return sys, data, err
}

// queryRun is one query's outcome under one mode.
type queryRun struct {
	sim       sim.Time
	digest    uint64
	rows      int
	offloaded bool
	st        db.Stats
}

// runQueries runs every query once under Conv (newPlanner nil) or the
// offload planner, each with a fresh executor, in one host program.
func runQueries(b *bench, sys *biscuit.System, data *tpch.Data, queries []tpch.Query, mode string, newPlanner func() *planner.Planner) ([]queryRun, error) {
	out := make([]queryRun, len(queries))
	var err error
	sys.Run(func(h *biscuit.Host) {
		for i, q := range queries {
			ex := db.NewExec(h, data.DB)
			ex.JoinBufferRows = joinBufferRows
			qc := &tpch.QCtx{Ex: ex, D: data}
			if newPlanner != nil {
				qc.Pl = newPlanner()
			}
			var rows []db.Row
			start := h.Now()
			err = b.measure("tpch.Query.Run."+mode, map[string]any{"query": q.ID}, func() error {
				var qerr error
				rows, qerr = q.Run(qc)
				ex.FlushCost()
				return qerr
			})
			if err != nil {
				err = fmt.Errorf("Q%d %s: %w", q.ID, mode, err)
				return
			}
			out[i] = queryRun{sim: h.Now() - start, digest: rowSetDigest(rows), rows: len(rows), offloaded: qc.Offloaded, st: ex.St}
		}
	})
	return out, err
}

// tpchResults derives the first pass's sim metrics, per-layer counts,
// paper accuracy and digests.
func (b *bench) tpchResults(queries []tpch.Query, conv, ndp []queryRun) error {
	got := digests{}
	var totalConv, totalBisc, ndpSum float64
	var offSpeedups, ndpMs []float64
	var convLink, ndpLink, pagesInternal, rowsScanned int64
	for i, q := range queries {
		got.set(fmt.Sprintf("Q%02d", q.ID), ndp[i].digest)
		c, n := conv[i].sim, ndp[i].sim
		ndpMs = append(ndpMs, n.Seconds()*1e3)
		ndpSum += n.Seconds()
		// Fig. 10 convention: a query the planner did not offload runs
		// the identical plan, so its relative performance is 1.0.
		bisc := n
		if !ndp[i].offloaded {
			bisc = c
		} else {
			offSpeedups = append(offSpeedups, float64(c)/float64(n))
		}
		totalConv += c.Seconds()
		totalBisc += bisc.Seconds()
		convLink += conv[i].st.PagesOverLink
		ndpLink += ndp[i].st.PagesOverLink
		pagesInternal += conv[i].st.PagesInternal + ndp[i].st.PagesInternal
		rowsScanned += conv[i].st.RowsScanned + ndp[i].st.RowsScanned
	}
	total := totalConv / totalBisc
	geo := stats.GeoMean(offSpeedups)
	errTotal := math.Abs(total-paperTotalSpeedup) / paperTotalSpeedup
	errGeo := math.Abs(geo-paperGeomeanSpeedup) / paperGeomeanSpeedup
	b.notes = append(b.notes,
		fmt.Sprintf("tpch22 total speed-up %.2fx (paper %.1fx, error %.3f)", total, paperTotalSpeedup, errTotal),
		fmt.Sprintf("tpch22 geomean offloaded speed-up %.2fx (paper %.1fx, error %.3f)", geo, paperGeomeanSpeedup, errGeo),
		fmt.Sprintf("tpch22 offloaded %d queries (paper %d)", len(offSpeedups), paperOffloaded))

	if b.sf == defaultTPCHSF {
		if err := b.checkGoldens(got); err != nil {
			return err
		}
	} else {
		b.notes = append(b.notes, "goldens are recorded at the default scale factor; cross-checks only")
	}
	b.counts["simclock.p50_ms"] = percentile(ndpMs, 50)
	b.counts["simclock.p99_ms"] = percentile(ndpMs, 99)
	b.counts["simclock.capacity_qps"] = float64(len(queries)) / ndpSum
	b.notes = append(b.notes, fmt.Sprintf("tpch22 Biscuit query sim time p50 %.3f ms, p99 %.3f ms, closed-loop %.3f queries/s",
		b.counts["simclock.p50_ms"], b.counts["simclock.p99_ms"], b.counts["simclock.capacity_qps"]))
	b.okShare = 1 - float64(len(b.problems))/float64(2*len(queries))

	b.counts["tpch.speedup_total"] = total
	b.counts["tpch.speedup_geomean"] = geo
	b.counts["tpch.paper_err_total"] = errTotal
	b.counts["tpch.paper_err_geomean"] = errGeo
	b.counts["planner.offloaded"] = float64(len(offSpeedups))
	b.counts["db.rows_scanned"] = float64(rowsScanned)
	b.counts["db.pages_internal"] = float64(pagesInternal)
	if ndpLink > 0 {
		b.counts["db.io_reduction"] = float64(convLink) / float64(ndpLink)
	}
	return nil
}
