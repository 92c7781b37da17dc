// Package simconsumer imports the simulation kernel, so wall-clock
// reads are forbidden in it.
package simconsumer

import (
	"time"

	"biscuit/internal/sim"
)

var virtualNow sim.Time

func bad() {
	time.Now()                          // want `time\.Now reads the wall clock`
	time.Sleep(time.Second)             // want `time\.Sleep reads the wall clock`
	_ = time.Since(time.Time{})         // want `time\.Since reads the wall clock`
	_ = time.After(time.Second)         // want `time\.After reads the wall clock`
	_ = time.NewTimer(time.Millisecond) // want `time\.NewTimer reads the wall clock`
}

func constructorsAreFine() {
	_ = time.Date(1995, time.July, 1, 0, 0, 0, 0, time.UTC)
	_, _ = time.ParseDuration("3ms")
	_ = time.Unix(0, int64(virtualNow))
}

func waivedInline() {
	time.Now() //biscuitvet:ignore walltime: host-side progress display
	//biscuitvet:ignore walltime: covers the next line
	time.Sleep(time.Millisecond)
}

// The legacy reasonless //biscuitvet:<name>-ok form is gone: it no
// longer suppresses, and the diagnostic suggests the reasoned waiver.
func legacyWaiverIgnored() {
	//biscuitvet:walltime-ok
	time.Now() // want `time\.Now reads the wall clock .*suppress with //biscuitvet:ignore walltime: <reason>`
}
