package db

import (
	"errors"
	"fmt"
	"sort"

	"biscuit"
	"biscuit/internal/core"
	"biscuit/internal/fault"
	"biscuit/internal/isfs"
	"biscuit/internal/match"
	"biscuit/internal/sim"
	"biscuit/internal/trace"
)

// The device-side table scan: the paper's rewritten XtraDB datapath
// (§V-C) pushes a page-filtering scan into the SSD. Pages stream through
// the per-channel hardware matcher; only pages containing a key are
// looked at by the device CPU, which row-filters them with the full
// predicate and ships qualifying rows to the host. Non-matching pages
// never cross the NVMe link.
//
// Aggregation pushdown is the same scan with a different sink: the
// extension the paper's §VIII points at ("developing non-trivial
// data-intensive applications on Biscuit") and the capability Do et
// al.'s Smart SSD prototype hard-wired into firmware. With an AggSpec
// set, the device folds the surviving rows into per-group aggregate
// state and ships only the group results — device-to-host traffic
// becomes O(groups) instead of O(matching rows).

// NDPModuleName is the module carrying the device scan task.
const NDPModuleName = "xtradb-ndp.slet"

// NDPBatchBytes is the D2H output batch size of the offloaded scan:
// rows (table rows, or group rows under aggregation) are re-encoded on
// the device and shipped in packets of roughly this many bytes.
const NDPBatchBytes = 32 << 10

// NDPScanID is the SSDlet class id of the device table scan.
const NDPScanID = "idTableScan"

// ndpAggFoldCPR is the device cycles per decoded row an aggregating
// scan pays on top of DevEvalCPR: hashing the group key and updating
// each accumulator.
const ndpAggFoldCPR = 60

// NDPScanArgs parameterizes one offloaded scan.
type NDPScanArgs struct {
	File string
	Keys []string // hardware matcher keys (page-level prefilter)
	Pred Expr     // full row predicate (exact filter), may be nil
	Sch  *Schema
	Cost CostModel
	// Agg, when set, aggregates the qualifying rows on the device and
	// ships one [group..., aggregate...] row per group.
	Agg *AggSpec
	// Software disables the matcher IP: every page is decoded and
	// filtered by the device CPU. This reproduces the paper's negative
	// finding (§I) that software-only in-storage scanning cannot beat a
	// modern host on a fast SSD.
	Software bool
	// PageSize is the table's page size (needed by the software path to
	// slice its bulk reads back into pages).
	PageSize int
}

// AggSpec is the aggregation an NDP scan performs on the device: the
// GroupBy expressions (empty = one scalar group) and the aggregates,
// both evaluated over the table's schema.
type AggSpec struct {
	GroupBy []Expr
	Aggs    []Agg
}

type ndpScanLet struct{}

func (ndpScanLet) Spec() biscuit.Spec {
	return biscuit.Spec{Out: []core.SpecType{biscuit.PacketPort}}
}

// Run is the one device scan: a page source (the matcher prefilter, or
// every page under Software), a CPU phase that decodes each page and
// hands the rows passing the predicate to a sink, and a framer that
// ships the sink's output in NDPBatchBytes packets.
func (ndpScanLet) Run(c *biscuit.Context) error {
	args, ok := c.Arg(0).(NDPScanArgs)
	if !ok {
		return fmt.Errorf("db: NDP scan needs NDPScanArgs, got %T", c.Arg(0))
	}
	a, err := match.CompileHW(args.Keys)
	if err != nil {
		return err
	}
	out, err := biscuit.Out[biscuit.Packet](c, 0)
	if err != nil {
		return err
	}
	f, err := c.OpenFile(args.File, isfs.ReadOnly)
	if err != nil {
		return err
	}
	pages, err := devicePages(c, f, a, args)
	if err != nil {
		return err
	}

	// Phase 2: the device CPU decodes the pages and evaluates the exact
	// predicate; qualifying rows go to the sink, which frames its output
	// for the D2H port.
	fr := &framer{out: out}
	cpr := args.Cost.DevEvalCPR
	var sink scanSink = &rowSink{fr: fr, sch: args.Sch}
	if args.Agg != nil {
		cpr += ndpAggFoldCPR
		sink = &aggSink{fr: fr, groups: newGroupTable(args.Agg.GroupBy, args.Agg.Aggs),
			sch: ndpAggOutSchema(args.Sch, args.Agg)}
	}
	for _, pg := range pages {
		rows := 0
		err := DecodePage(pg.data, args.Sch, func(r Row) error {
			rows++
			if args.Pred == nil || Truthy(args.Pred.Eval(r)) {
				sink.add(r)
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("db: NDP scan decode @%d: %w", pg.off, err)
		}
		c.Compute(args.Cost.DevPageCheckCPP +
			args.Cost.DevDecodeCPB*float64(len(pg.data)) +
			cpr*float64(rows))
		if !sink.pageDone() {
			return nil
		}
	}
	return sink.finish()
}

// devicePage is one table page buffered on the device for the CPU
// phase, with its file offset.
type devicePage struct {
	off  int64
	data []byte
}

// devicePages is phase 1, the page source: it streams the whole file
// through the matcher IPs, buffering only the pages that contain at
// least one key, in file order. Row predicates are page-superset-safe
// by construction (the planner derives keys from literal constants of
// the predicate). Under Software every page is buffered instead.
func devicePages(c *biscuit.Context, f *isfs.File, a *match.Automaton, args NDPScanArgs) ([]devicePage, error) {
	var pages []devicePage
	if args.Software {
		// Ablation: no matcher IP. Stream the file with plain internal
		// reads and hand every page to the CPU phase.
		const stride = 1 << 20
		buf := make([]byte, stride)
		pageSz := args.PageSize
		if pageSz <= 0 {
			pageSz = 16 << 10
		}
		for off := int64(0); off < f.Size(); off += stride {
			n := stride
			if rem := f.Size() - off; int64(n) > rem {
				n = int(rem)
			}
			if _, err := c.ReadFile(f, off, buf[:n]); err != nil {
				return nil, err
			}
			for at := 0; at < n; at += pageSz {
				end := min(at+pageSz, n)
				pages = append(pages, devicePage{off + int64(at), append([]byte(nil), buf[at:end]...)})
			}
		}
		return pages, nil
	}
	if err := c.ScanFile(f, 0, int(f.Size()), func(off int64, data []byte) {
		if a.Contains(data) {
			pages = append(pages, devicePage{off, append([]byte(nil), data...)})
		}
	}); err != nil {
		return nil, err
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i].off < pages[j].off })
	return pages, nil
}

// scanSink consumes the rows that pass the predicate in the CPU phase.
type scanSink interface {
	// add takes one qualifying row, valid only for the call.
	add(r Row)
	// pageDone runs after each page's compute charge; false ends the
	// scan quietly (the host closed the port).
	pageDone() bool
	// finish ships whatever the sink still holds.
	finish() error
}

// framer packs encoded rows into D2H packets of NDPBatchBytes.
type framer struct {
	out   *core.OutPort[biscuit.Packet]
	batch []byte
}

// ship sends the pending batch once it holds NDPBatchBytes — or, when
// final, whatever is left. Rows never straddle packets. It reports
// false when the host closed the port.
func (fr *framer) ship(final bool) bool {
	if len(fr.batch) == 0 || (!final && len(fr.batch) < NDPBatchBytes) {
		return true
	}
	pkt := biscuit.NewPacket(fr.batch)
	fr.batch = nil
	return fr.out.Put(pkt)
}

// rowSink re-encodes every qualifying row into the output batch and
// ships at page granularity.
type rowSink struct {
	fr  *framer
	sch *Schema
}

func (s *rowSink) add(r Row)      { s.fr.batch = EncodeRow(s.fr.batch, s.sch, r) }
func (s *rowSink) pageDone() bool { return s.fr.ship(false) }

func (s *rowSink) finish() error {
	s.fr.ship(true)
	return nil
}

// aggSink folds qualifying rows into per-group state and, at the end,
// ships the group results as (keyRow..., aggVals...) rows in
// deterministic key order, flushing after each row that fills a batch
// (group counts above the batch size split cleanly).
type aggSink struct {
	fr     *framer
	groups *groupTable
	sch    *Schema // ndpAggOutSchema
}

func (s *aggSink) add(r Row)      { s.groups.add(r) }
func (s *aggSink) pageDone() bool { return true }

// errAggDropped fails an aggregating scan whose host closed the port
// before taking every group row. A row scan in that spot stops quietly
// instead: its consumer stopped early, e.g. under a LIMIT.
var errAggDropped = errors.New("db: aggregate result dropped: output port closed")

func (s *aggSink) finish() error {
	for _, row := range s.groups.rows() {
		s.fr.batch = EncodeRow(s.fr.batch, s.sch, row)
		if !s.fr.ship(false) {
			return errAggDropped
		}
	}
	if !s.fr.ship(true) {
		return errAggDropped
	}
	return nil
}

// ndpAggOutSchema derives the device->host row schema of an aggregate
// scan over a table of schema sch. Group types are probed by evaluating
// the expressions against a zero row at plan time on the host; aggregate
// columns use their natural result types.
func ndpAggOutSchema(sch *Schema, spec *AggSpec) *Schema {
	zero := make(Row, len(sch.Cols))
	for i, c := range sch.Cols {
		zero[i] = Value{T: c.T}
	}
	cols := make([]Column, 0, len(spec.GroupBy)+len(spec.Aggs))
	for i, g := range spec.GroupBy {
		cols = append(cols, Column{Name: fmt.Sprintf("g%d", i), T: g.Eval(zero).T})
	}
	for i, ag := range spec.Aggs {
		t := TInt
		switch ag.F {
		case Sum, Min, Max:
			if ag.Arg != nil {
				t = ag.Arg.Eval(zero).T
			}
		case Avg:
			t = TDecimal
		}
		name := ag.Name
		if name == "" {
			name = fmt.Sprintf("a%d", i)
		}
		cols = append(cols, Column{Name: name, T: t})
	}
	return NewSchema(cols...)
}

func ndpScanImage() *biscuit.ModuleImage {
	return biscuit.NewModule(NDPModuleName, 128<<10).
		RegisterSSDLet(NDPScanID, func() biscuit.SSDlet { return ndpScanLet{} })
}

// ensureNDP loads the device scan module once per database.
func (d *Database) ensureNDP(h *biscuit.Host) (*biscuit.Module, error) {
	if d.ndpModule != nil {
		return d.ndpModule, nil
	}
	m, err := h.SSD().LoadModule(NDPModuleName)
	if err != nil {
		return nil, err
	}
	d.ndpModule = m
	return m, nil
}

// NDPScan is the host-side iterator over an offloaded table scan, and
// over an aggregating one when Agg is set.
//
// A row scan that dies on a media error degrades to the Conv path (see
// NextBatch). An aggregating scan has no Conv fallback: partial
// aggregates cannot be resumed on the host after a mid-scan media
// failure (the device holds the accumulator state), so an uncorrectable
// error surfaces to the caller, who reruns the query on the Conv plan;
// the FTL's read-retry and the interface's command retry have already
// absorbed everything absorbable by then.
type NDPScan struct {
	Ex   *Exec
	T    *Table
	Keys []string
	Pred Expr
	// Agg, when set, aggregates on the device over T's schema.
	Agg *AggSpec
	// Software selects the no-matcher ablation path.
	Software bool

	aggSch  *Schema // Schema() under Agg
	app     *biscuit.Application
	port    *biscuit.HostIn[biscuit.Packet]
	batch   []byte
	recvd   int64
	emitted int64     // rows already handed to the consumer
	fb      *ConvScan // engaged when the device scan dies on a media error
	waited  bool      // app.Wait already consumed
	// resume holds the live remainder of the fallback batch that
	// straddled the already-emitted row count: the fallback re-delivers
	// rows batch-aligned, so the first post-fault batch may start
	// mid-way through a ConvScan batch.
	resume   *RowBatch
	resumeAt int

	span    trace.Span // open "scan.ndp" lifetime span
	started sim.Time   // Open time, for the duration histogram
	opened  bool       // Open seen and Close not yet
}

func (s *NDPScan) exec() *Exec { return s.Ex }

// NewNDPScan builds an offloaded scan; keys must satisfy the hardware
// matcher limits and page-cover the predicate.
func (ex *Exec) NewNDPScan(t *Table, keys []string, pred Expr) *NDPScan {
	return &NDPScan{Ex: ex, T: t, Keys: keys, Pred: pred}
}

// NewNDPAggScan builds a filter+aggregate offload: an NDP scan that
// yields [group columns..., aggregate columns...] rows.
func (ex *Exec) NewNDPAggScan(t *Table, keys []string, pred Expr, groupBy []Expr, aggs []Agg) *NDPScan {
	s := ex.NewNDPScan(t, keys, pred)
	s.Agg = &AggSpec{GroupBy: groupBy, Aggs: aggs}
	return s
}

// Schema returns the table schema, or [group columns..., aggregate
// columns...] under Agg.
func (s *NDPScan) Schema() *Schema {
	if s.Agg == nil {
		return s.T.Sch
	}
	if s.aggSch == nil {
		s.aggSch = ndpAggOutSchema(s.T.Sch, s.Agg)
	}
	return s.aggSch
}

// Open loads the scan module, wires the application and starts it.
func (s *NDPScan) Open() error {
	h := s.Ex.H
	m, err := s.Ex.DB.ensureNDP(h)
	if err != nil {
		return err
	}
	s.app = h.SSD().NewApplication()
	let, err := s.app.NewSSDLet(m, NDPScanID, NDPScanArgs{
		File:     s.T.FileName,
		Keys:     s.Keys,
		Pred:     s.Pred,
		Sch:      s.T.Sch,
		Cost:     s.Ex.Cost,
		Agg:      s.Agg,
		Software: s.Software,
		PageSize: s.T.PageSize,
	})
	if err != nil {
		return err
	}
	port, err := biscuit.ConnectTo[biscuit.Packet](s.app, let.Out(0))
	if err != nil {
		return err
	}
	if err := s.app.Start(); err != nil {
		return err
	}
	s.port = port
	s.batch = nil
	s.recvd = 0
	s.emitted = 0
	s.fb = nil
	s.waited = false
	s.resume = nil
	s.resumeAt = 0
	s.Ex.noteNDPScan()
	s.Ex.St.PagesInternal += s.T.Pages
	s.span = s.Ex.beginScan("scan.ndp", s.T.Name)
	s.started = s.Ex.H.Now()
	s.opened = true
	return nil
}

// NextBatch decodes the next shipped packet directly into b — the
// device's 32 KiB D2H byte-batches map onto host RowBatches without a
// per-row iterator step in between. When a row scan dies on an
// uncorrectable media error, the scan transparently degrades to the
// conventional host path: a ConvScan is opened, already-delivered rows
// are skipped batch-aligned (both paths emit predicate-passing rows in
// file order) and the stream continues without the consumer noticing —
// the paper's graceful-degradation story for NDP offload. Non-media
// device failures (bugs, bad arguments) still surface as errors.
func (s *NDPScan) NextBatch(b *RowBatch) (int, error) {
	for {
		if s.fb != nil {
			if s.resume != nil {
				b.Reset()
				n := 0
				for s.resumeAt < s.resume.Len() && !b.Full() {
					b.AppendRow(s.resume.Row(s.resumeAt))
					s.resumeAt++
					n++
				}
				if s.resumeAt >= s.resume.Len() {
					s.resume = nil
				}
				if n > 0 {
					s.emitted += int64(n)
					return n, nil
				}
				continue
			}
			n, err := s.fb.NextBatch(b)
			s.emitted += int64(n)
			return n, err
		}
		if len(s.batch) > 0 {
			b.Reset()
			consumed := 0
			for len(s.batch) > 0 && !b.Full() {
				k, err := b.DecodeRowInto(s.batch, s.Schema())
				if err != nil {
					return 0, err
				}
				s.batch = s.batch[k:]
				consumed += k
			}
			b.FinishStrings()
			n := b.Len()
			s.Ex.chargeHost(s.Ex.Cost.HostDecodeCPB * float64(consumed))
			if s.Agg == nil {
				s.Ex.St.RowsScanned += int64(n)
			}
			s.emitted += int64(n)
			return n, nil
		}
		pkt, ok := s.port.GetPacket()
		if !ok {
			if err := s.finishApp(); err == nil || !s.recoverable(err) {
				return 0, err
			}
			if ferr := s.engageFallback(); ferr != nil {
				return 0, ferr
			}
			continue
		}
		s.batch = pkt.Bytes()
		s.recvd += int64(pkt.Len())
	}
}

// finishApp reaps the device application exactly once and reports its
// first contained failure.
func (s *NDPScan) finishApp() error {
	if s.app == nil || s.waited {
		return nil
	}
	s.waited = true
	if err := s.app.Wait(); err != nil {
		return err
	}
	for _, err := range s.app.Failed() {
		return fmt.Errorf("db: device scan failed: %w", err)
	}
	return nil
}

// recoverable reports whether a device failure can be absorbed: only a
// row scan's media error can, by the Conv fallback mid-stream or by the
// consumer having stopped early at Close.
func (s *NDPScan) recoverable(err error) bool {
	return s.Agg == nil && errors.Is(err, fault.ErrUncorrectable)
}

// engageFallback switches the iterator onto a ConvScan after a device
// media failure, fast-forwarding past the rows the NDP path already
// delivered. The skip is batch-aligned: whole fallback batches are
// discarded while they fit under the emitted count, and the batch that
// straddles the boundary is trimmed with Drop and stashed for the next
// NextBatch. The event is visible in Stats.NDPFallbacks and in the
// injector's fault schedule.
func (s *NDPScan) engageFallback() error {
	s.Ex.noteNDPFallback()
	s.Ex.scanInstant("ndp.fallback", s.T.Name)
	plat := s.Ex.H.System().Plat
	plat.Inj.Record(fault.Fallback, "db.ndpscan "+s.T.Name)
	fb := s.Ex.NewConvScan(s.T, s.Pred)
	if err := fb.Open(); err != nil {
		return err
	}
	if skip := s.emitted; skip > 0 {
		rb := NewRowBatch(s.Ex.batchCap())
		for skip > 0 {
			n, err := fb.NextBatch(rb)
			if err != nil {
				return err
			}
			if n == 0 {
				break
			}
			if int64(n) <= skip {
				skip -= int64(n)
				continue
			}
			rb.Drop(int(skip))
			skip = 0
			s.resume = rb
			s.resumeAt = 0
		}
	}
	s.batch = nil
	s.fb = fb
	return nil
}

// Close waits for the device application and accounts link traffic.
func (s *NDPScan) Close() error {
	if s.app == nil {
		return nil
	}
	var firstErr error
	if s.fb != nil {
		firstErr = s.fb.Close()
		s.fb = nil
		s.resume = nil
	} else {
		// Drain any unread packets so a blocked device producer can
		// finish (the consumer may have stopped early, e.g. under a
		// LIMIT).
		for {
			pkt, ok := s.port.GetPacket()
			if !ok {
				break
			}
			s.recvd += int64(pkt.Len())
		}
		if err := s.finishApp(); err != nil && !s.recoverable(err) {
			// A row scan's uncorrectable media error after the consumer
			// stopped early is moot: every requested row was delivered.
			firstErr = err
		}
	}
	ps := int64(s.T.PageSize)
	s.Ex.AddLinkPages((s.recvd + ps - 1) / ps)
	s.app = nil
	// The span ends even when the device application failed — the export
	// should show the aborted scan's true extent.
	if s.opened {
		s.opened = false
		s.span.End()
		s.span = trace.Span{}
		s.Ex.observeScan("db.scan.ndp", s.Ex.H.Now()-s.started)
	}
	return firstErr
}
