// Package devlet is device-side code: it imports the fiber runtime.
package devlet

import "biscuit/internal/fibers"

func process(f *fibers.Fiber, work []int) {
	go drain(work) // want `raw go statement in device-side code`
	for range work {
		f.Yield()
	}
	go func() { // want `raw go statement in device-side code`
		drain(work)
	}()
	//biscuitvet:ignore nogoroutine: bridging to host-side test harness
	go drain(work)
}

func drain(work []int) {}
