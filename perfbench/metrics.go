package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values.
type metrics map[string]metric

var (
	metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitName   = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validate rejects a name or unit outside the result format, and a
// value that JSON cannot carry.
func (m metrics) validate() error {
	for name, v := range m {
		if !metricName.MatchString(name) {
			return fmt.Errorf("bad metric name %q", name)
		}
		if !unitName.MatchString(v.Unit) {
			return fmt.Errorf("metric %s: bad unit %q", name, v.Unit)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s: value %v", name, v.Value)
		}
	}
	return nil
}

// quartiles returns the first quartile, median and third quartile of
// xs by the "exclusive" method of Python's statistics.quantiles(n=4).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		// statistics.quantiles: j = floor(i*(n+1)/4) clamped to
		// [1, n-1], delta = i*(n+1) - 4j, interpolating s[j-1]..s[j].
		n := len(s)
		m := i * (n + 1)
		j := min(max(m/4, 1), n-1)
		delta := float64(m - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), median(s), q(3)
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile of xs (p in (0,100]).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p / 100 * float64(len(s))))
	if k < 1 {
		k = 1
	}
	return s[k-1]
}
