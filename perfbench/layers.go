package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strings"
	"time"

	"biscuit"
	"biscuit/internal/sim"
)

// layers are the per-layer buckets of the CPU profile, named after the
// repository's internal packages (db/planner is "planner"). "perfbench"
// is this benchmark's own code, "other" any internal package not
// listed, and "runtime" samples with no biscuit frame at all.
var layers = []string{
	"sim", "fibers", "ports", "core", "hostif", "nand", "ftl", "isfs", "mem",
	"device", "match", "db", "planner", "tpch", "weblog", "serve", "health",
	"telemetry", "stats", "cpu", "trace", "loadgen", "fault", "perfbench",
	"other", "runtime",
}

// countNames are the per-layer counts every workload reports; a count
// a workload has no source for reads 0.
var countNames = []string{
	"sim.events", "sim.host_ns_per_event",
	"hostif.cmds", "hostif.bytes_to_host", "hostif.bytes_to_device",
	"nand.reads", "nand.programs", "nand.erases", "nand.bytes_read",
	"ftl.reads", "ftl.writes", "ftl.gc_rounds", "ftl.gc_moves",
	"ftl.rain.reconstructs", "ftl.rain.degraded_reads", "ftl.rain.parity_writes",
	"ftl.rebuild.pages", "ftl.rebuild.parity",
	"core.transfers", "core.bytes_up", "core.bytes_down",
	"db.rows_scanned",
	"db.pages_link", "db.pages_internal", "db.scans_ndp", "db.scans_conv",
	"db.ndp_fallbacks", "db.io_reduction",
	"planner.offloaded",
	"tpch.speedup_total", "tpch.speedup_geomean", "tpch.paper_err_total", "tpch.paper_err_geomean",
	"serve.offered", "serve.rejected", "serve.completed", "serve.errors",
	"serve.deadline_misses", "serve.migrations",
	"health.transitions",
	"runtime.gc_cycles", "runtime.gc_pause_s",
	"hostif.read_p99_us", "fibers.sched_p99_us",
	"simclock.p50_ms", "simclock.p99_ms", "simclock.capacity_qps",
}

// countEvent is the traced pass's scheduler hook: it only counts.
func (b *bench) countEvent(sim.SchedEvent) { b.counts["sim.events"]++ }

// deviceCounts reads the public accessors of each platform, summed.
func deviceCounts(systems []*biscuit.System) map[string]float64 {
	m := map[string]float64{}
	for _, s := range systems {
		p := s.Plat
		cmds, toHost, toDev := p.HostIF.Stats()
		m["hostif.cmds"] += float64(cmds)
		m["hostif.bytes_to_host"] += float64(toHost)
		m["hostif.bytes_to_device"] += float64(toDev)
		reads, programs, erases, bytesRead := p.Array.Stats()
		m["nand.reads"] += float64(reads)
		m["nand.programs"] += float64(programs)
		m["nand.erases"] += float64(erases)
		m["nand.bytes_read"] += float64(bytesRead)
		fr, fw := p.FTL.IOStats()
		m["ftl.reads"] += float64(fr)
		m["ftl.writes"] += float64(fw)
		rounds, moves := p.FTL.GCStats()
		m["ftl.gc_rounds"] += float64(rounds)
		m["ftl.gc_moves"] += float64(moves)
		rain := p.FTL.Rain()
		m["ftl.rain.reconstructs"] += float64(rain.Reconstructs)
		m["ftl.rain.degraded_reads"] += float64(rain.DegradedReads)
		m["ftl.rain.parity_writes"] += float64(rain.ParityWrites)
		rb := p.FTL.Rebuild()
		m["ftl.rebuild.pages"] += float64(rb.Pages)
		m["ftl.rebuild.parity"] += float64(rb.Parity)
		_, _, transfers, up, down := s.RT.ChannelManager().Stats()
		m["core.transfers"] += float64(transfers)
		m["core.bytes_up"] += float64(up)
		m["core.bytes_down"] += float64(down)
		m["db.pages_link"] += float64(p.Ctrs.Get("db.pages.link"))
		m["db.scans_ndp"] += float64(p.Ctrs.Get("db.scan.ndp"))
		m["db.scans_conv"] += float64(p.Ctrs.Get("db.scan.conv"))
		m["db.ndp_fallbacks"] += float64(p.Ctrs.Get("db.ndp.fallback"))
	}
	return m
}

// addDeviceCounts adds the counts accumulated since before (taken by
// deviceCounts after set-up) and folds in the worst sim-time waits.
func (b *bench) addDeviceCounts(systems []*biscuit.System, before map[string]float64) {
	for k, v := range deviceCounts(systems) {
		b.counts[k] += v - before[k]
	}
	for _, s := range systems {
		for name, key := range map[string]string{"hostif.read": "hostif.read_p99_us", "fiber.sched": "fibers.sched_p99_us"} {
			if h := s.Plat.Hists.Get(name); h != nil {
				b.counts[key] = max(b.counts[key], float64(h.Quantile(0.99))/1e3)
			}
		}
	}
}

// perLayer assembles the traced run's per-layer metrics: profile
// shares, counts, sim-time waits and host time per public call.
// plainRunS is the untraced pass's run_s from the same process.
func (b *bench) perLayer(stacks []stack, plainRunS float64) metrics {
	m := metrics{}
	self, cum := layerShares(stacks)
	for _, l := range layers {
		m[l+".self_share"] = metric{self[l], "share"}
		m[l+".cum_share"] = metric{cum[l], "share"}
	}
	if ev := b.counts["sim.events"]; ev > 0 {
		b.counts["sim.host_ns_per_event"] = plainRunS * 1e9 / ev
	}
	for _, n := range countNames {
		unit := "count"
		switch {
		case strings.HasSuffix(n, "_us"):
			unit = "us"
		case strings.HasSuffix(n, "_ms"):
			unit = "ms"
		case strings.HasSuffix(n, "_qps"):
			unit = "1/s"
		case strings.HasSuffix(n, "_s"):
			unit = "s"
		case strings.HasPrefix(n, "tpch.") || n == "db.io_reduction":
			unit = "ratio"
		case n == "sim.host_ns_per_event":
			unit = "ns"
		case strings.Contains(n, "bytes"):
			unit = "B"
		}
		m[n] = metric{b.counts[n], unit}
	}
	perSetup := func(names ...string) float64 {
		var d time.Duration
		for _, n := range names {
			d += b.timers[n]
		}
		return d.Seconds() / float64(max(1, len(b.setupS)))
	}
	m["setup.platform_s"] = metric{perSetup("biscuit.NewSystem", "db.Open", "serve.New"), "s"}
	m["setup.load_s"] = metric{perSetup("tpch.Gen.Load"), "s"}
	perPass := float64(max(1, len(b.passes)))
	m["db.conv_host_s"] = metric{b.timers["tpch.Query.Run.conv"].Seconds() / perPass, "s"}
	m["db.ndp_host_s"] = metric{b.timers["tpch.Query.Run.ndp"].Seconds() / perPass, "s"}
	m["tracing.run_s"] = metric{b.runS(), "s"}
	m["tracing.untraced_run_s"] = metric{plainRunS, "s"}
	m["tracing.overhead_s"] = metric{b.runS() - plainRunS, "s"}
	b.notes = append(b.notes, fmt.Sprintf("tracing overhead %.3f s (traced run_s %.3f s, untraced %.3f s)",
		b.runS()-plainRunS, b.runS(), plainRunS))
	return m
}

// stack is one CPU-profile sample stack, innermost frame first.
type stack struct {
	weight time.Duration
	frames []string
}

// readProfile lists the profile's sample stacks with the toolchain's
// `go tool pprof -traces`.
func readProfile(path string) ([]stack, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces %s: %w", path, err)
	}
	return parseTraces(out)
}

// parseTraces parses `pprof -traces` text: blocks separated by dashed
// lines, the first line of a block carrying the sample weight before
// the innermost frame, the rest one frame per line.
func parseTraces(out []byte) ([]stack, error) {
	var stacks []stack
	cur := -1 // index of the block being read
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			cur = -1
			continue
		}
		if cur < 0 && !strings.HasPrefix(line, " ") {
			continue // header lines: File, Type, Time, Duration
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if cur < 0 {
			w, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof -traces: bad weight in %q", line)
			}
			stacks = append(stacks, stack{weight: w})
			cur = len(stacks) - 1
			fields = fields[1:]
			if len(fields) == 0 {
				continue
			}
		}
		stacks[cur].frames = append(stacks[cur].frames, fields[0])
	}
	if len(stacks) == 0 {
		return nil, fmt.Errorf("pprof -traces: no samples")
	}
	return stacks, sc.Err()
}

// frameLayer maps a profile frame to its layer: the last element of a
// biscuit/internal/... package path, "perfbench" for this benchmark's
// own frames (package main), or "" for anything else.
func frameLayer(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "perfbench"
	}
	const p = "biscuit/internal/"
	if !strings.HasPrefix(fn, p) {
		return ""
	}
	pkg := fn[len(p):]
	if i := strings.Index(pkg, "."); i >= 0 {
		pkg = pkg[:i] // dots only appear after the last path element
	}
	pkg = pkg[strings.LastIndex(pkg, "/")+1:]
	for _, l := range layers {
		if l == pkg {
			return l
		}
	}
	return "other"
}

// layerShares buckets sample weight per layer. Self share charges each
// sample to its innermost layer frame, so runtime and library work
// goes to the layer that called it and samples without one to
// "runtime"; cum share counts each sample once for every layer on its
// stack.
func layerShares(stacks []stack) (self, cum map[string]float64) {
	self, cum = map[string]float64{}, map[string]float64{}
	var total time.Duration
	for _, s := range stacks {
		total += s.weight
		owner := ""
		seen := map[string]bool{}
		for _, f := range s.frames {
			l := frameLayer(f)
			if l == "" {
				continue
			}
			if owner == "" {
				owner = l
			}
			seen[l] = true
		}
		if owner == "" {
			owner = "runtime"
			seen["runtime"] = true
		}
		self[owner] += float64(s.weight)
		for l := range seen {
			cum[l] += float64(s.weight)
		}
	}
	for l := range self {
		self[l] /= float64(total)
	}
	for l := range cum {
		cum[l] /= float64(total)
	}
	return self, cum
}
