// Package waivedmetrics carries legacy metric keys that predate the
// naming convention; each use waives the check with a reasoned
// directive.
package waivedmetrics

import "biscuit/internal/stats"

func legacy(c *stats.Counters, g *stats.Gauges) {
	c.Add("Legacy-Dashboard-Key", 1) //biscuitvet:ignore statnames: legacy dashboard key predates the naming scheme
	//biscuitvet:ignore statnames: external dashboard matches on this exact key
	g.Set("GC Debt (SB)", 7)
}
