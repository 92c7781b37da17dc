package ftl

// RAIN (redundant array of independent NAND): the FTL's device-side
// parity protection. Every stripe groups W data pages laid down on W
// distinct channels with one XOR parity page on yet another channel, so
// the loss of any single page — a latent sector error, a read that
// exhausts its retry ladder, or a whole dead die — is rebuilt from the
// W surviving pages. Reconstruction pays its honest simulated price:
// W parallel NAND reads across the surviving channels plus an XOR pass
// on the firmware CPU. A patrol scrub (ScrubStep, driven by a device
// fiber) walks the stripe population verifying parity and repairing
// damage before a second failure can make it unrecoverable.
//
// Life cycle: data writes XOR-accumulate into the open stripe
// (stripeAdd); the stripe seals when full or when a write would put a
// second page on one of its channels. Sealed stripes are dropped when
// their last live member is invalidated, narrowed (shrunk) when GC
// must erase a block holding one of their stale members, and have
// their parity relocated when GC collects the parity's block.

import (
	"errors"
	"fmt"

	"biscuit/internal/fault"
	"biscuit/internal/sim"
)

// parityMark is the blockMeta.lpns sentinel of a live parity page: not
// a logical page (no lpn), but occupying space the GC must respect.
const parityMark = -2

// openStripe accumulates one write stream's data pages until seal.
type openStripe struct {
	buf     []byte       // XOR accumulator over the members so far
	members []int        // data ppis in arrival order
	chans   map[int]bool // channels used (at most one stripe page each)
	stream  int          // write stream the parity page goes to
}

// stripeRec is a sealed stripe. seq increments on every membership or
// parity change; blocking operations capture (pointer, seq) and bail
// when either moved, so concurrent repairs never mix stripe versions.
type stripeRec struct {
	members []int // data ppis (shrunk members removed)
	parity  int   // parity ppi
	live    int   // members still mapped; 0 drops the stripe
	seq     int
}

func xorInto(dst, src []byte) {
	for i := range src {
		dst[i] ^= src[i]
	}
}

func (f *FTL) channelOf(ppi int) int {
	die, _, _ := f.decode(ppi)
	return die / f.arr.Config().WaysPerChannel
}

// mappedPpi reports whether the physical page currently backs a logical
// page.
func (f *FTL) mappedPpi(ppi int) bool {
	die, block, pg := f.decode(ppi)
	return f.dies[die].blockMeta[block].lpns[pg] >= 0
}

// markParity claims ppi's metadata slot as a live parity page.
func (f *FTL) markParity(ppi int) {
	die, block, pg := f.decode(ppi)
	bm := &f.dies[die].blockMeta[block]
	bm.lpns[pg] = parityMark
	bm.valid++
}

// clearParity releases a parity page's metadata slot (the physical
// bytes become garbage for GC).
func (f *FTL) clearParity(ppi int) {
	die, block, pg := f.decode(ppi)
	bm := &f.dies[die].blockMeta[block]
	if bm.lpns[pg] == parityMark {
		bm.lpns[pg] = -1
		bm.valid--
	}
}

// detach removes the stream's open stripe from the frontier and parks
// it on the sealing list (which shields its members' blocks from erase
// until the parity lands). Callers must seal the returned stripe.
func (f *FTL) detach(stream int) *openStripe {
	st := f.cur[stream]
	if st == nil {
		return nil
	}
	f.cur[stream] = nil
	f.sealing = append(f.sealing, st)
	return st
}

func (f *FTL) unseal(st *openStripe) {
	for i, s := range f.sealing {
		if s == st {
			f.sealing = append(f.sealing[:i], f.sealing[i+1:]...)
			return
		}
	}
}

// newSid hands out a stripe id, recycling freed slots.
func (f *FTL) newSid() int {
	if n := len(f.freeSid); n > 0 {
		sid := f.freeSid[n-1]
		f.freeSid = f.freeSid[:n-1]
		return sid
	}
	f.stripes = append(f.stripes, nil)
	return len(f.stripes) - 1
}

// stripeAdd XOR-accumulates a freshly mapped data page into the open
// stripe, sealing it when full or when the page's channel collides
// with an existing member (a stripe never holds two pages one die
// failure could take out together). All open-stripe bookkeeping
// happens before the first blocking call, so concurrent writers each
// observe a consistent accumulator.
func (f *FTL) stripeAdd(p *sim.Proc, ppi int, page []byte, stream int) {
	if f.stripeW == 0 {
		return
	}
	var collided *openStripe
	ch := f.channelOf(ppi)
	cur := f.cur[stream]
	if cur != nil && cur.chans[ch] {
		collided = f.detach(stream)
		cur = nil
	}
	if cur == nil {
		cur = &openStripe{buf: make([]byte, f.PageSize()), chans: make(map[int]bool), stream: stream}
		f.cur[stream] = cur
	}
	xorInto(cur.buf, page)
	cur.members = append(cur.members, ppi)
	cur.chans[ch] = true
	var full *openStripe
	if len(cur.members) >= f.stripeW {
		full = f.detach(stream)
	}
	// Blocking parts only from here on.
	f.fw.Exec(p, f.cfg.XORCyclesPerByte*float64(len(page)))
	if collided != nil {
		f.seal(p, collided)
	}
	if full != nil {
		f.seal(p, full)
	}
}

// SealStripe closes every stream's open stripe early, if any. Callers
// flushing a write batch (the filesystem on Sync) use it so freshly
// loaded data is parity-protected without waiting for the frontier to
// fill the stripe's remaining slots.
func (f *FTL) SealStripe(p *sim.Proc) {
	for stream := 0; stream < numStreams; stream++ {
		if st := f.detach(stream); st != nil {
			f.seal(p, st)
		}
	}
}

// seal closes a detached stripe: it writes the parity page to a
// channel none of the members occupy and publishes the stripe record
// so reads, GC and scrub can reconstruct through it. A stripe whose
// members all died while open is discarded without a parity write.
func (f *FTL) seal(p *sim.Proc, st *openStripe) {
	defer f.unseal(st)
	live := 0
	for _, m := range st.members {
		if f.mappedPpi(m) {
			live++
		}
	}
	if live == 0 {
		return
	}
	sp := f.tr.BeginAsync(f.rainTk, "ftl.rain.seal").Arg("members", int64(len(st.members)))
	avoid := make(map[int]bool, len(st.members))
	for _, m := range st.members {
		avoid[f.channelOf(m)] = true
	}
	f.fw.Exec(p, f.cfg.FirmwareWriteCycles)
	parity, err := f.writePage(p, st.buf, avoid, st.stream)
	sp.End()
	if err != nil {
		// The members stay unprotected — reads fall back to the retry
		// ladder alone — and the accumulator is abandoned.
		f.parityFails++
		f.tr.Instant(f.fwTk, "rain.parityfail")
		return
	}
	f.parityWrites++
	f.stripeSeals++
	// Liveness is recomputed after the blocking program: members
	// invalidated while the parity was in flight must not inflate it.
	live = 0
	for _, m := range st.members {
		if f.mappedPpi(m) {
			live++
		}
	}
	sid := f.newSid()
	f.stripes[sid] = &stripeRec{members: st.members, parity: parity, live: live}
	for _, m := range st.members {
		f.memberOf[m] = sid
	}
	f.parityOf[parity] = sid
	f.markParity(parity)
	if live == 0 {
		f.dropStripe(sid)
	}
}

// dropStripe releases a stripe whose last live member died: the stale
// members stop being tracked (their blocks become freely erasable) and
// the parity page becomes garbage.
func (f *FTL) dropStripe(sid int) {
	st := f.stripes[sid]
	for _, m := range st.members {
		delete(f.memberOf, m)
	}
	delete(f.parityOf, st.parity)
	f.clearParity(st.parity)
	st.seq++
	f.stripes[sid] = nil
	f.freeSid = append(f.freeSid, sid)
	f.stripeDrops++
}

// blockHasOpenMember reports whether the block holds a member of a
// stripe that has not sealed yet. Such a block must not be erased: the
// parity that will cover the member has not landed, so its bytes are
// the only copy.
func (f *FTL) blockHasOpenMember(die, block int) bool {
	has := func(st *openStripe) bool {
		if st == nil {
			return false
		}
		for _, m := range st.members {
			d, b, _ := f.decode(m)
			if d == die && b == block {
				return true
			}
		}
		return false
	}
	for _, cur := range f.cur {
		if has(cur) {
			return true
		}
	}
	for _, st := range f.sealing {
		if has(st) {
			return true
		}
	}
	return false
}

// readStripePages reads the given physical pages in parallel (one
// spawned reader per page, fanning across channels) and returns their
// contents alongside per-page errors.
func (f *FTL) readStripePages(p *sim.Proc, srcs []int) ([][]byte, []error) {
	ps := f.PageSize()
	pages := make([][]byte, len(srcs))
	errs := make([]error, len(srcs))
	done := sim.NewCompletion(f.env, len(srcs))
	for i, src := range srcs {
		i, src := i, src
		f.env.Spawn("ftl-rain", func(rp *sim.Proc) {
			pages[i], errs[i] = f.readRetry(rp, f.ppa(src), 0, ps)
			done.Done(nil)
		})
	}
	done.Wait(p)
	return pages, errs
}

// openStripeOf returns the unsealed stripe — on the write frontier or
// parked with its parity in flight — holding data page ppi, if any.
func (f *FTL) openStripeOf(ppi int) *openStripe {
	has := func(st *openStripe) bool {
		if st == nil {
			return false
		}
		for _, m := range st.members {
			if m == ppi {
				return true
			}
		}
		return false
	}
	for _, st := range f.cur {
		if has(st) {
			return st
		}
	}
	for _, st := range f.sealing {
		if has(st) {
			return st
		}
	}
	return nil
}

// reconstructOpen rebuilds a member of a stripe that has not sealed
// yet. The controller holds the open stripe's running XOR in RAM, so a
// page lost before its parity lands is still recoverable: the
// accumulator folded with the other members, read back from media at
// full cost. The accumulator and member list are snapshotted before the
// sibling reads block — stripeAdd may grow both while the reads are in
// flight, and the snapshot pair stays self-consistent.
func (f *FTL) reconstructOpen(p *sim.Proc, st *openStripe, ppi int) ([]byte, error) {
	acc := make([]byte, f.PageSize())
	copy(acc, st.buf)
	srcs := make([]int, 0, len(st.members))
	for _, m := range st.members {
		if m != ppi {
			srcs = append(srcs, m)
		}
	}
	sp := f.tr.BeginAsync(f.rainTk, "ftl.rain.reconstruct").Arg("reads", int64(len(srcs)))
	start := p.Now()
	pages, errs := f.readStripePages(p, srcs)
	for _, e := range errs {
		if e != nil {
			sp.End()
			f.reconstructFails++
			f.tr.Instant(f.fwTk, "rain.reconstructfail")
			return nil, fmt.Errorf("ftl: reconstruct open stripe %v: %w", f.ppa(ppi), e)
		}
	}
	for _, pg := range pages {
		xorInto(acc, pg)
	}
	f.fw.Exec(p, f.cfg.XORCyclesPerByte*float64(len(acc))*float64(len(pages)+1))
	sp.End()
	f.reconstructs++
	f.hists.Observe("ftl.rain.reconstruct", int64(p.Now()-start))
	f.arr.Injector().Record(fault.Reconstruct, "ftl.rain "+f.ppa(ppi).String())
	return acc, nil
}

// reconstruct rebuilds the full contents of data page ppi from the
// surviving members of its stripe plus parity: W parallel NAND reads
// across the other channels and one XOR pass on the firmware CPU.
func (f *FTL) reconstruct(p *sim.Proc, ppi int) ([]byte, error) {
	sid, ok := f.memberOf[ppi]
	if !ok {
		if st := f.openStripeOf(ppi); st != nil {
			return f.reconstructOpen(p, st, ppi)
		}
		// An unstriped page is a benign miss (RAIN never covered it), not
		// a protection failure: counted apart so the health monitor does
		// not escalate on it.
		f.reconstructUnstriped++
		return nil, fmt.Errorf("ftl: page %v is not striped", f.ppa(ppi))
	}
	st := f.stripes[sid]
	seq := st.seq
	srcs := make([]int, 0, len(st.members))
	for _, m := range st.members {
		if m != ppi {
			srcs = append(srcs, m)
		}
	}
	srcs = append(srcs, st.parity)
	sp := f.tr.BeginAsync(f.rainTk, "ftl.rain.reconstruct").Arg("reads", int64(len(srcs)))
	start := p.Now()
	pages, errs := f.readStripePages(p, srcs)
	var err error
	for _, e := range errs {
		if e != nil {
			err = e // a second lost page: beyond single-parity protection
			break
		}
	}
	if err == nil && (f.stripes[sid] != st || st.seq != seq) {
		// The stripe shrank or dropped while the sibling reads were in
		// flight; the XOR below would mix stripe versions.
		err = errors.New("stripe changed during reconstruction")
	}
	if err != nil {
		sp.End()
		f.reconstructFails++
		f.tr.Instant(f.fwTk, "rain.reconstructfail")
		return nil, fmt.Errorf("ftl: reconstruct %v: %w", f.ppa(ppi), err)
	}
	out := make([]byte, f.PageSize())
	for _, pg := range pages {
		xorInto(out, pg)
	}
	f.fw.Exec(p, f.cfg.XORCyclesPerByte*float64(len(out))*float64(len(pages)))
	sp.End()
	f.reconstructs++
	f.hists.Observe("ftl.rain.reconstruct", int64(p.Now()-start))
	f.arr.Injector().Record(fault.Reconstruct, "ftl.rain "+f.ppa(ppi).String())
	return out, nil
}

// shrinkMember removes stale member ppi from its stripe ahead of its
// block's erase. It reports whether the member no longer blocks the
// erase.
func (f *FTL) shrinkMember(p *sim.Proc, ppi int) bool {
	sid, ok := f.memberOf[ppi]
	if !ok {
		return true
	}
	return f.shrinkMembers(p, sid, []int{ppi})
}

// shrinkMembers removes the given stale members from stripe sid in one
// step: the narrower parity is recomputed as the XOR of the remaining
// members, whose bytes are all still on media. Batching matters — a GC
// victim holding several stale members of one stripe costs one parity
// rewrite, not one per member. It reports whether the members no
// longer block their blocks' erase.
func (f *FTL) shrinkMembers(p *sim.Proc, sid int, drop []int) bool {
	st := f.stripes[sid]
	seq := st.seq
	dropping := func(m int) bool {
		for _, d := range drop {
			if d == m {
				return true
			}
		}
		return false
	}
	rest := make([]int, 0, len(st.members))
	for _, m := range st.members {
		if !dropping(m) {
			rest = append(rest, m)
		}
	}
	if len(rest) == 0 {
		// Every member stale: nothing left worth protecting.
		f.dropStripe(sid)
		return true
	}
	sp := f.tr.BeginAsync(f.rainTk, "ftl.rain.shrink").Arg("reads", int64(len(rest)))
	pages, errs := f.readStripePages(p, rest)
	for _, e := range errs {
		if e != nil {
			sp.End()
			return false // a remaining member is unreadable: cannot narrow safely
		}
	}
	if f.stripes[sid] != st || st.seq != seq {
		sp.End()
		return true // repaired or dropped concurrently; re-examine later
	}
	acc := make([]byte, f.PageSize())
	for _, pg := range pages {
		xorInto(acc, pg)
	}
	f.fw.Exec(p, f.cfg.XORCyclesPerByte*float64(len(acc))*float64(len(pages)))
	avoid := make(map[int]bool, len(rest))
	for _, m := range rest {
		avoid[f.channelOf(m)] = true
	}
	parity, err := f.writePage(p, acc, avoid, gcStream)
	sp.End()
	if err != nil {
		return false
	}
	if f.stripes[sid] != st || st.seq != seq {
		return true // the fresh page is unmapped garbage; GC erases it later
	}
	delete(f.parityOf, st.parity)
	f.clearParity(st.parity)
	st.members = rest
	for _, m := range drop {
		delete(f.memberOf, m)
	}
	st.parity = parity
	st.seq++
	f.parityOf[parity] = sid
	f.markParity(parity)
	f.parityWrites++
	f.stripeShrinks++
	return true
}

// relocateParity moves a stripe's parity page off a GC victim block:
// read it (or rebuild it from the members if unreadable), program a
// copy on a channel no member occupies, and swap the stripe's record
// over. It reports whether the parity no longer blocks the erase.
func (f *FTL) relocateParity(p *sim.Proc, src int) bool {
	sid, ok := f.parityOf[src]
	if !ok {
		return true // cleared concurrently
	}
	st := f.stripes[sid]
	seq := st.seq
	data, err := f.readRetry(p, f.ppa(src), 0, f.PageSize())
	if err != nil && errors.Is(err, fault.ErrUncorrectable) {
		data, err = f.rebuildParity(p, sid, st, seq)
	}
	if err != nil {
		return false
	}
	if f.stripes[sid] != st || st.seq != seq {
		return true
	}
	avoid := make(map[int]bool, len(st.members))
	for _, m := range st.members {
		avoid[f.channelOf(m)] = true
	}
	dst, err := f.writePage(p, data, avoid, gcStream)
	if err != nil {
		return false
	}
	if f.stripes[sid] != st || st.seq != seq || st.parity != src {
		return true // superseded while programming; the copy is garbage
	}
	delete(f.parityOf, src)
	f.clearParity(src)
	st.parity = dst
	st.seq++
	f.parityOf[dst] = sid
	f.markParity(dst)
	f.parityWrites++
	return true
}

// rebuildParity recomputes a stripe's parity as the XOR of its members
// (all of which must be readable).
func (f *FTL) rebuildParity(p *sim.Proc, sid int, st *stripeRec, seq int) ([]byte, error) {
	pages, errs := f.readStripePages(p, st.members)
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
	if f.stripes[sid] != st || st.seq != seq {
		return nil, errors.New("stripe changed during parity rebuild")
	}
	acc := make([]byte, f.PageSize())
	for _, pg := range pages {
		xorInto(acc, pg)
	}
	f.fw.Exec(p, f.cfg.XORCyclesPerByte*float64(len(acc))*float64(len(pages)))
	return acc, nil
}

// releaseStaleMembers unpins the GC victim block from every stripe
// holding a stale member on it. Per stripe the cheaper route wins:
// shrinking rewrites one parity page per stale member, compaction
// rewrites one data page per live member (and drops the stripe,
// freeing its parity too) — so a mostly-dead stripe is compacted and a
// mostly-live one is shrunk. It reports whether the block ended free
// of stripe pins.
func (f *FTL) releaseStaleMembers(p *sim.Proc, dieIdx, victim int) bool {
	nc := f.arr.Config()
	for pg := 0; pg < nc.PagesPerBlock; pg++ {
		ppi := f.encode(dieIdx, victim, pg)
		sid, member := f.memberOf[ppi]
		if !member {
			continue // never striped, or its stripe dropped/shrank already
		}
		st := f.stripes[sid]
		var staleHere []int
		for _, m := range st.members {
			if d, b, _ := f.decode(m); d == dieIdx && b == victim && !f.mappedPpi(m) {
				staleHere = append(staleHere, m)
			}
		}
		if st.live <= len(staleHere) {
			if !f.compactStripe(p, sid, st) {
				return false
			}
		} else if !f.shrinkMembers(p, sid, staleHere) {
			return false
		}
	}
	return true
}

// compactStripe relocates every live member of the stripe onto the
// frontier (re-striping them with current data); the stripe drops when
// its last member invalidates, releasing the parity page and every
// stale-member pin. It reports whether all live members moved.
func (f *FTL) compactStripe(p *sim.Proc, sid int, st *stripeRec) bool {
	members := append([]int(nil), st.members...)
	for _, m := range members {
		if f.stripes[sid] != st {
			return true // dropped mid-compaction: goal reached
		}
		if f.mappedPpi(m) && !f.moveData(p, m) {
			return false
		}
	}
	return true
}

// compactStripes compacts the stripe with the fewest live members (the
// most space pinned per byte protected). It reports whether any
// candidate existed — GC's fallback when no block is reclaimable.
func (f *FTL) compactStripes(p *sim.Proc) bool {
	best, bestLive := -1, 0
	for sid, st := range f.stripes {
		if st == nil || st.live == 0 || st.live >= len(st.members) {
			continue
		}
		if best < 0 || st.live < bestLive {
			best, bestLive = sid, st.live
		}
	}
	if best < 0 {
		return false
	}
	return f.compactStripe(p, best, f.stripes[best])
}

// compactAged compacts every stripe that has lost at least half its
// members (live <= ceil(members/2)): relocating the live members costs
// live*(1+1/W) programs but releases one parity page plus every
// stale-member pin, and — just as important — caps the steady-state
// parity overhead near 1/W instead of letting half-dead stripes pay a
// full parity page for one or two live members. Run at the start of
// each collection, it keeps stripe aging from silently eating the
// spare. Compaction consumes frontier pages before it frees anything,
// so it stops as soon as the free-block reserve reaches floor — the
// caller's victim loop reclaims space the direct way first.
func (f *FTL) compactAged(p *sim.Proc, floor int) {
	var cands []int
	for sid, st := range f.stripes {
		if st != nil && st.live > 0 && 2*st.live <= len(st.members)+1 {
			cands = append(cands, sid)
		}
	}
	for _, sid := range cands {
		if f.freeBlocks() <= floor {
			return
		}
		st := f.stripes[sid]
		// The slot may have dropped or been recycled for a fresh stripe
		// while an earlier compaction blocked; re-qualify it.
		if st == nil || st.live == 0 || 2*st.live > len(st.members)+1 {
			continue
		}
		f.compactStripe(p, sid, st)
	}
}

// blockStripePinned reports whether any page of the block is still a
// tracked stripe member. An erase would destroy bytes some parity
// still XORs over, so a pinned block must never be erased — this is
// the final gate after relocation and shrinking, closing the race
// where a concurrent scrub repair invalidates a shrink mid-flight.
func (f *FTL) blockStripePinned(die, block int) bool {
	nc := f.arr.Config()
	for pg := 0; pg < nc.PagesPerBlock; pg++ {
		if _, ok := f.memberOf[f.encode(die, block, pg)]; ok {
			return true
		}
	}
	return false
}

// ScrubStep examines one stripe — the patrol that turns latent sector
// errors into repairs before a second failure makes them
// unrecoverable. It reads every member and the parity in parallel;
// with no read failures it verifies the XOR relation (rewriting an
// inconsistent parity), with exactly one failure it repairs the lost
// page (reconstructed member rewritten and remapped, damaged parity
// recomputed, damaged stale member shrunk out), and with more it can
// only count the stripe lost. Successive calls walk the whole stripe
// population via a cursor. It reports whether a stripe was examined.
func (f *FTL) ScrubStep(p *sim.Proc) bool {
	if f.stripeW == 0 {
		return false
	}
	sid := -1
	for i, n := 0, len(f.stripes); i < n; i++ {
		c := (f.scrubCur + i) % n
		if f.stripes[c] != nil {
			sid = c
			break
		}
	}
	if sid < 0 {
		return false
	}
	f.scrubCur = sid + 1
	if f.scrubCur >= len(f.stripes) {
		f.scrubCur = 0
	}
	st := f.stripes[sid]
	seq := st.seq
	srcs := append(append([]int(nil), st.members...), st.parity)
	sp := f.tr.BeginAsync(f.rainTk, "ftl.scrub").Arg("pages", int64(len(srcs)))
	defer sp.End()
	pages, errs := f.readStripePages(p, srcs)
	f.scrubStripes++
	f.gScrub.Set(f.scrubStripes)
	if f.stripes[sid] != st || st.seq != seq {
		return true // mutated while reading; the next pass re-checks it
	}
	var failed []int
	for i, e := range errs {
		if e != nil {
			failed = append(failed, i)
		}
	}
	switch len(failed) {
	case 0:
		// All pages readable: verify parity == XOR(members). The fold
		// over members and parity together must cancel to zero.
		acc := make([]byte, f.PageSize())
		for _, pg := range pages {
			xorInto(acc, pg)
		}
		f.fw.Exec(p, f.cfg.XORCyclesPerByte*float64(len(acc))*float64(len(pages)))
		for _, b := range acc {
			if b != 0 {
				if f.stripes[sid] == st && st.seq == seq {
					f.rewriteParity(p, sid, st, seq, pages[:len(pages)-1])
				}
				break
			}
		}
	case 1:
		i := failed[0]
		if srcs[i] == st.parity {
			f.rewriteParity(p, sid, st, seq, pages[:len(pages)-1])
			return true
		}
		f.repairMember(p, sid, st, seq, srcs[i], i, pages)
	default:
		f.scrubLost++
		f.tr.Instant(f.fwTk, "scrub.lost")
	}
	return true
}

// repairMember heals the single unreadable member at srcs[bad]: its
// content is the XOR of every other stripe page. A live member is
// rewritten to a fresh page and remapped; a stale one is shrunk out.
func (f *FTL) repairMember(p *sim.Proc, sid int, st *stripeRec, seq, ppi, bad int, pages [][]byte) {
	content := make([]byte, f.PageSize())
	for j, pg := range pages {
		if j != bad {
			xorInto(content, pg)
		}
	}
	f.fw.Exec(p, f.cfg.XORCyclesPerByte*float64(len(content))*float64(len(pages)-1))
	if f.stripes[sid] != st || st.seq != seq {
		return
	}
	die, block, pg := f.decode(ppi)
	bm := &f.dies[die].blockMeta[block]
	lpn := bm.lpns[pg]
	if lpn < 0 {
		f.shrinkMember(p, ppi)
		return
	}
	dst, err := f.writePage(p, content, nil, gcStream)
	if err != nil {
		return
	}
	if bm.lpns[pg] != lpn || f.l2p[lpn] != ppi {
		return // moved while repairing; the fresh copy becomes garbage
	}
	f.invalidate(ppi)
	nd, nb, np := f.decode(dst)
	nbm := &f.dies[nd].blockMeta[nb]
	nbm.lpns[np] = lpn
	nbm.valid++
	f.l2p[lpn] = dst
	f.scrubRepairs++
	f.arr.Injector().Record(fault.ScrubRepair, "ftl.scrub "+f.ppa(ppi).String())
	f.stripeAdd(p, dst, content, gcStream)
}

// rewriteParity replaces a stripe's parity with the XOR of the member
// pages just read (scrub's repair for a damaged or inconsistent
// parity page).
func (f *FTL) rewriteParity(p *sim.Proc, sid int, st *stripeRec, seq int, members [][]byte) {
	acc := make([]byte, f.PageSize())
	for _, pg := range members {
		xorInto(acc, pg)
	}
	f.fw.Exec(p, f.cfg.XORCyclesPerByte*float64(len(acc))*float64(len(members)))
	if f.stripes[sid] != st || st.seq != seq {
		return
	}
	avoid := make(map[int]bool, len(st.members))
	for _, m := range st.members {
		avoid[f.channelOf(m)] = true
	}
	dst, err := f.writePage(p, acc, avoid, gcStream)
	if err != nil {
		return
	}
	if f.stripes[sid] != st || st.seq != seq {
		return
	}
	old := st.parity
	delete(f.parityOf, old)
	f.clearParity(old)
	st.parity = dst
	st.seq++
	f.parityOf[dst] = sid
	f.markParity(dst)
	f.parityWrites++
	f.scrubParityFixes++
	f.arr.Injector().Record(fault.ScrubRepair, "ftl.scrub parity "+f.ppa(old).String())
}
