package metricuser

import "biscuit/internal/stats"

// Test files may register throwaway keys; the analyzer skips them.
func scratchKeysInTests(c *stats.Counters, g *stats.Gauges) {
	c.Add("Scratch-Key", 1)
	g.Set("ANYTHING GOES", 2)
}
