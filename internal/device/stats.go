package device

import (
	"fmt"
	"io"
	"time"
)

// WriteStats dumps the platform's counters, the FTL's RAIN, scrub and
// rebuild activity, and the latency percentiles, each section in a
// deterministic order. FTL counts that are still zero are omitted, as
// never-touched counters are.
func (p *Platform) WriteStats(w io.Writer) {
	fmt.Fprintln(w, "-- counters")
	for _, c := range p.Ctrs.Snapshot() {
		fmt.Fprintf(w, "   %-24s %d\n", c.Name, c.Value)
	}
	rain, rb := p.FTL.Rain(), p.FTL.Rebuild()
	fmt.Fprintln(w, "-- ftl")
	for _, c := range []struct {
		name string
		v    int64
	}{
		{"ftl.rain.seal", rain.StripeSeals},
		{"ftl.rain.drop", rain.StripeDrops},
		{"ftl.rain.shrink", rain.StripeShrinks},
		{"ftl.rain.parity", rain.ParityWrites},
		{"ftl.rain.parityfail", rain.ParityFails},
		{"ftl.rain.reconstruct", rain.Reconstructs},
		{"ftl.rain.reconstructfail", rain.ReconstructFails},
		{"ftl.rain.unstriped", rain.ReconstructUnstriped},
		{"ftl.rain.degraded", rain.DegradedReads},
		{"ftl.rain.lost", rain.LostPages},
		{"ftl.scrub.stripes", rain.ScrubStripes},
		{"ftl.scrub.repairs", rain.ScrubRepairs},
		{"ftl.scrub.parityfix", rain.ScrubParityFixes},
		{"ftl.scrub.lost", rain.ScrubLost},
		{"ftl.rebuild.pages", rb.Pages},
		{"ftl.rebuild.parity", rb.Parity},
		{"ftl.rebuild.skips", rb.Skips},
		{"ftl.rebuild.fails", rb.Fails},
		{"ftl.rebuild.dies", rb.Dies},
	} {
		if c.v != 0 {
			fmt.Fprintf(w, "   %-24s %d\n", c.name, c.v)
		}
	}
	fmt.Fprintln(w, "-- latencies")
	for _, s := range p.Hists.Snapshot() {
		fmt.Fprintf(w, "   %-24s count=%-8d p50=%-12v p95=%-12v p99=%-12v max=%v\n",
			s.Name, s.Summary.Count, time.Duration(s.Summary.P50), time.Duration(s.Summary.P95),
			time.Duration(s.Summary.P99), time.Duration(s.Summary.Max))
	}
}
