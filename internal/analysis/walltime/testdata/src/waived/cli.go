// Package waived is a host-side CLI that drives a simulation but also
// reports real elapsed time; the file-header directive waives the
// whole file.
//
//biscuitvet:ignore walltime: host-side CLI reports real elapsed time
package waived

import (
	"time"

	_ "biscuit/internal/sim"
)

func elapsed(start time.Time) time.Duration {
	time.Sleep(time.Millisecond)
	return time.Since(start)
}
