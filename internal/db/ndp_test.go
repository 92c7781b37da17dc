package db

import (
	"hash/fnv"
	"testing"

	"biscuit"
	"biscuit/internal/sim"
)

// ndpPin is the observable footprint of one offloaded scan: what it
// returned, what crossed the link, what the host counted, and when the
// simulation finished. Every field is sim-time deterministic.
type ndpPin struct {
	digest   uint64 // FNV-64a over the rendered rows, in order
	rows     int
	link     int64 // St.PagesOverLink
	scanned  int64 // St.RowsScanned
	simEndNs sim.Time
}

func rowsDigest(rows []Row) uint64 {
	h := fnv.New64a()
	for _, r := range renderRows(rows) {
		h.Write([]byte(r))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// TestNDPScanPinned pins the device scan's four configurations — the
// matcher row scan, the Software (no-matcher) row scan, and the grouped
// and scalar aggregate scans — to their outputs, link traffic, host row
// counts and end-of-run sim time. The fixture qualifies enough rows
// (and groups) that both the row and the aggregate output span several
// NDPBatchBytes packets, so the packet boundaries are part of the pin.
func TestNDPScanPinned(t *testing.T) {
	const key = "TARGETKEY"
	cases := []struct {
		name string
		mk   func(ex *Exec, tab *Table) Iterator
		// ref is the host-side reference the device output must equal.
		ref  func(ex *Exec, tab *Table) Iterator
		want ndpPin
	}{
		{
			name: "matcher-rows",
			mk: func(ex *Exec, tab *Table) Iterator {
				return ex.NewNDPScan(tab, []string{key}, EqS(tab.Sch, "note", key))
			},
			ref: func(ex *Exec, tab *Table) Iterator {
				return ex.NewConvScan(tab, EqS(tab.Sch, "note", key))
			},
			want: ndpPin{0x728ba2ec2f7446ed, 5000, 9, 5000, 34296790},
		},
		{
			name: "software-rows",
			mk: func(ex *Exec, tab *Table) Iterator {
				s := ex.NewNDPScan(tab, []string{key}, EqS(tab.Sch, "note", key))
				s.Software = true
				return s
			},
			// The ablation changes which pages reach the device CPU, never
			// which rows come back.
			ref: func(ex *Exec, tab *Table) Iterator {
				return ex.NewNDPScan(tab, []string{key}, EqS(tab.Sch, "note", key))
			},
			want: ndpPin{0x728ba2ec2f7446ed, 5000, 9, 5000, 34357340},
		},
		{
			name: "grouped-agg",
			mk: func(ex *Exec, tab *Table) Iterator {
				return ex.NewNDPAggScan(tab, []string{key}, EqS(tab.Sch, "note", key),
					pinGroupBy(tab), pinAggs(tab))
			},
			ref: func(ex *Exec, tab *Table) Iterator {
				return &HashAggOp{Ex: ex, In: ex.NewConvScan(tab, EqS(tab.Sch, "note", key)),
					GroupBy: pinGroupBy(tab), GroupNms: []string{"g0"}, Aggs: pinAggs(tab)}
			},
			want: ndpPin{0x532216fe604547bf, 4884, 4, 0, 37057923},
		},
		{
			name: "scalar-agg",
			mk: func(ex *Exec, tab *Table) Iterator {
				return ex.NewNDPAggScan(tab, []string{key}, EqS(tab.Sch, "note", key), nil, pinAggs(tab))
			},
			ref: func(ex *Exec, tab *Table) Iterator {
				return ScalarAgg(ex, ex.NewConvScan(tab, EqS(tab.Sch, "note", key)), pinAggs(tab)...)
			},
			want: ndpPin{0xb29c1576d8b36b9c, 1, 1, 0, 36889042},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys := quickSys()
			d := Open(sys)
			var got ndpPin
			var rows, ref []Row
			sys.Run(func(h *biscuit.Host) {
				tab := loadFixture(t, h, d, 40000, 8)
				ex := NewExec(h, d)
				var err error
				if rows, err = Collect(tc.mk(ex, tab)); err != nil {
					t.Fatal(err)
				}
				ex.FlushCost()
				got = ndpPin{rowsDigest(rows), len(rows), ex.St.PagesOverLink, ex.St.RowsScanned, h.Now()}
				exR := NewExec(h, d)
				if ref, err = Collect(tc.ref(exR, tab)); err != nil {
					t.Fatal(err)
				}
			})
			sameRows(t, rows, ref)
			if got != tc.want {
				t.Fatalf("pin drifted:\n got  %#v\n want %#v", got, tc.want)
			}
		})
	}
}

// pinGroupBy groups the fixture's qualifying rows by price: thousands
// of groups, so the aggregate output spans several packets.
func pinGroupBy(tab *Table) []Expr { return []Expr{C(tab.Sch, "price")} }

func pinAggs(tab *Table) []Agg {
	return []Agg{
		{F: Sum, Arg: C(tab.Sch, "price"), Name: "total"},
		{F: CountAgg, Name: "n"},
		{F: Max, Arg: C(tab.Sch, "id"), Name: "maxid"},
	}
}

func TestNDPAggMatchesHostAggregation(t *testing.T) {
	sys := quickSys()
	d := Open(sys)
	sys.Run(func(h *biscuit.Host) {
		tab := loadFixture(t, h, d, 50000, 40)
		pred := EqS(tab.Sch, "note", "TARGETKEY")
		groupBy := []Expr{C(tab.Sch, "ship")}
		aggs := []Agg{
			{F: Sum, Arg: C(tab.Sch, "price"), Name: "total"},
			{F: CountAgg, Name: "n"},
			{F: Max, Arg: C(tab.Sch, "id"), Name: "maxid"},
		}

		// Host-side reference: Conv scan + host aggregation.
		exH := NewExec(h, d)
		ref := &HashAggOp{Ex: exH, In: exH.NewConvScan(tab, pred),
			GroupBy: groupBy, GroupNms: []string{"g0"}, Aggs: aggs}
		want, err := Collect(ref)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatal("reference aggregation empty")
		}

		// Device-side aggregation.
		exD := NewExec(h, d)
		got, err := Collect(exD.NewNDPAggScan(tab, []string{"TARGETKEY"}, pred, groupBy, aggs))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("groups: device %d vs host %d", len(got), len(want))
		}
		for i := range want {
			for c := range want[i] {
				if !Equal(got[i][c], want[i][c]) {
					t.Fatalf("group %d col %d: device %v vs host %v", i, c, got[i][c], want[i][c])
				}
			}
		}
		// Aggregation pushdown ships O(groups): link traffic must be far
		// below even the row-shipping NDP scan.
		exR := NewExec(h, d)
		if _, err := Collect(exR.NewNDPScan(tab, []string{"TARGETKEY"}, pred)); err != nil {
			t.Fatal(err)
		}
		t.Logf("link pages: conv=%d ndp-rows=%d ndp-agg=%d", exH.St.PagesOverLink, exR.St.PagesOverLink, exD.St.PagesOverLink)
		if exD.St.PagesOverLink > exR.St.PagesOverLink {
			t.Fatalf("aggregate pushdown moved more data (%d) than row shipping (%d)",
				exD.St.PagesOverLink, exR.St.PagesOverLink)
		}
	})
}

func TestNDPAggScalar(t *testing.T) {
	sys := quickSys()
	d := Open(sys)
	sys.Run(func(h *biscuit.Host) {
		tab := loadFixture(t, h, d, 20000, 30)
		pred := EqS(tab.Sch, "note", "TARGETKEY")
		aggs := []Agg{{F: CountAgg, Name: "n"}, {F: Sum, Arg: C(tab.Sch, "price"), Name: "sum"}}

		exH := NewExec(h, d)
		want, err := Collect(ScalarAgg(exH, exH.NewConvScan(tab, pred), aggs...))
		if err != nil {
			t.Fatal(err)
		}
		exD := NewExec(h, d)
		got, err := Collect(exD.NewNDPAggScan(tab, []string{"TARGETKEY"}, pred, nil, aggs))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || !Equal(got[0][0], want[0][0]) || !Equal(got[0][1], want[0][1]) {
			t.Fatalf("device %v vs host %v", got, want)
		}
	})
}

func TestNDPAggRejectsBadKeys(t *testing.T) {
	sys := quickSys()
	d := Open(sys)
	sys.Run(func(h *biscuit.Host) {
		tab := loadFixture(t, h, d, 2000, 50)
		ex := NewExec(h, d)
		_, err := Collect(ex.NewNDPAggScan(tab, []string{"a", "b", "c", "d"}, nil, nil,
			[]Agg{{F: CountAgg}}))
		if err == nil {
			t.Fatal("4 keys must be rejected by the hardware limit")
		}
	})
}
