// Package metricuser exercises the statnames naming rules on every
// registry kind.
package metricuser

import (
	"fmt"

	"biscuit/internal/stats"
)

const gcDebt = "ftl.gc.debt"

func conforming(c *stats.Counters, h *stats.Histograms, g *stats.Gauges) {
	c.Add("hostif.read", 1)
	c.Add("db.scan.conv", 1)
	_ = c.Get("ftl.gc.round")
	h.Observe("tenant.sojourn_ns", 5)
	_ = h.H("nand.read_ns")
	g.Set("hostif.qd", 3)
	g.Add(gcDebt, 1) // named consts resolve too
	_ = g.G("nand.ch0.busy")
	_ = g.Get("serve.wfq.vt")
}

func badNames(c *stats.Counters, h *stats.Histograms, g *stats.Gauges) {
	c.Add("HostIF.Read", 1)     // want `stats key "HostIF.Read" is not lowercase dotted`
	c.Add("ftl-gc-debt", 1)     // want `stats key "ftl-gc-debt" is not lowercase dotted`
	_ = c.Get("hostif..qd")     // want `stats key "hostif\.\.qd" is not lowercase dotted`
	h.Observe("sojourn ns", 1)  // want `stats key "sojourn ns" is not lowercase dotted`
	_ = h.H(".leading.dot")     // want `stats key "\.leading\.dot" is not lowercase dotted`
	g.Set("trailing.dot.", 1)   // want `stats key "trailing\.dot\." is not lowercase dotted`
	g.Add("", 1)                // want `stats key "" is not lowercase dotted`
	_ = g.G("camelCase.metric") // want `stats key "camelCase\.metric" is not lowercase dotted`
	_ = g.Get("UPPER")          // want `stats key "UPPER" is not lowercase dotted`
	c.Add("ok.name"+" bad", 1)  // want `stats key "ok\.name bad" is not lowercase dotted`
}

func dynamicNamesAreSkipped(c *stats.Counters, g *stats.Gauges, tenant string, i int) {
	// Runtime-built keys are out of scope: the convention binds literals.
	c.Add("tenant."+tenant+".Rejected", 1)
	g.Set(fmt.Sprintf("nand.ch%d.Busy", i), 1)
}
