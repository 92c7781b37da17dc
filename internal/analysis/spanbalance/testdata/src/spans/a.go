// Package spans exercises the spanbalance analyzer: every shape the
// simulator actually uses must pass, and each leak pattern must be
// flagged.
package spans

import "biscuit/internal/trace"

type dev struct {
	tr   *trace.Tracer
	tk   trace.TrackID
	span trace.Span
}

// --- leaks -----------------------------------------------------------

func discarded(d *dev) {
	d.tr.Begin(d.tk, "op") // want `result of trace\.Tracer\.Begin is discarded`
}

func discardedChained(d *dev) {
	d.tr.BeginAsync(d.tk, "op").Arg("k", 1) // want `result of trace\.Tracer\.BeginAsync is discarded`
}

func discardedBlank(d *dev) {
	_ = d.tr.Begin(d.tk, "op") // want `result of trace\.Tracer\.Begin is discarded`
}

func neverEnded(d *dev) {
	sp := d.tr.Begin(d.tk, "op") // want `span sp is not ended before it goes out of scope`
	_ = sp
}

func earlyReturn(d *dev, fail bool) {
	sp := d.tr.Begin(d.tk, "op")
	if fail {
		return // want `span sp is not ended on this path`
	}
	sp.End()
}

func onlyOneBranch(d *dev, ok bool) {
	sp := d.tr.Begin(d.tk, "op") // want `span sp is not ended before it goes out of scope`
	if ok {
		sp.End()
	}
}

func leakInLoop(d *dev, n int) {
	for i := 0; i < n; i++ {
		sp := d.tr.Begin(d.tk, "op") // want `span sp is not ended before it goes out of scope`
		_ = sp
	}
}

func loopBreakLeak(d *dev, n int) {
	sp := d.tr.Begin(d.tk, "op")
	for i := 0; i < n; i++ {
		if i == 2 {
			return // want `span sp is not ended on this path`
		}
	}
	sp.End()
}

// --- balanced --------------------------------------------------------

func inlineEnd(d *dev) {
	d.tr.Begin(d.tk, "op").End()
}

func straightLine(d *dev) error {
	sp := d.tr.Begin(d.tk, "op").Arg("bytes", 4096)
	work()
	sp.End()
	return nil
}

func endThenReturn(d *dev, fail bool) error {
	sp := d.tr.BeginAsync(d.tk, "op")
	work()
	sp.End()
	if fail {
		return errFail
	}
	return nil
}

func deferred(d *dev) {
	sp := d.tr.Begin(d.tk, "op")
	defer sp.End()
	work()
}

func deferredClosure(d *dev) {
	sp := d.tr.BeginAsync(d.tk, "op")
	defer func() {
		sp.Arg("done", 1).End()
	}()
	work()
}

func bothBranches(d *dev, ok bool) {
	sp := d.tr.Begin(d.tk, "op")
	if ok {
		sp.End()
	} else {
		sp.Arg("fail", 1).End()
	}
}

func ifScoped(d *dev, waiting bool) {
	if waiting {
		sp := d.tr.BeginAsync(d.tk, "wait")
		for waiting {
			waiting = wait()
		}
		sp.End()
	}
}

func loopScoped(d *dev, rounds int) {
	for i := 0; i < rounds; i++ {
		sp := d.tr.Begin(d.tk, "round").Arg("i", int64(i))
		for j := 0; j < 4; j++ {
			if j == 3 {
				continue
			}
			if j > rounds {
				panic("impossible")
			}
			work()
		}
		sp.Arg("moves", 1).End()
	}
}

func chainedEnd(d *dev) {
	sp := d.tr.Begin(d.tk, "op")
	work()
	sp.Arg("a", 1).ArgStr("b", "x").End()
}

func fieldAssign(d *dev) {
	d.span = d.tr.Begin(d.tk, "run") // ended by whoever owns d
}

func handedBack(d *dev) trace.Span {
	return d.tr.BeginAsync(d.tk, "scan").ArgStr("table", "lineitem")
}

func passedAlong(d *dev) {
	keep(d.tr.Begin(d.tk, "op"))
}

func panicPath(d *dev, fail bool) {
	sp := d.tr.Begin(d.tk, "op")
	if fail {
		panic("broken invariant")
	}
	sp.End()
}

func switchEnds(d *dev, k int) {
	sp := d.tr.Begin(d.tk, "op")
	switch k {
	case 0:
		sp.End()
	default:
		sp.Arg("k", int64(k)).End()
	}
}

func suppressed(d *dev) {
	d.tr.Begin(d.tk, "op") //biscuitvet:ignore spanbalance: deliberate leak exercised by the exporter test
}

// --- helpers ---------------------------------------------------------

var errFail = errString("fail")

type errString string

func (e errString) Error() string { return string(e) }

func work() {}

func wait() bool { return false }

func keep(sp trace.Span) { sp.End() }
