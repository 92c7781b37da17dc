// Package mixer exercises the Duration/Time conversion check.
package mixer

import (
	"time"

	"biscuit/internal/sim"
)

func conversions(d time.Duration, t sim.Time) {
	_ = sim.Time(d)         // want `use sim\.FromDuration`
	_ = time.Duration(t)    // want `use sim\.Time\.AsDuration`
	_ = sim.FromDuration(d) // sanctioned crossing: fine
	_ = t.AsDuration()      // sanctioned crossing: fine
	_ = sim.Time(5)         // untyped constant: fine
	_ = sim.Time(int64(d))  // laundered through int64: out of scope, fine
	_ = time.Duration(42)   // untyped constant: fine

	//biscuitvet:ignore simtimemix: calibration table literally in ns
	_ = sim.Time(d)
}
