package match_test

import (
	"testing"

	"biscuit/internal/db"
	"biscuit/internal/db/planner"
	"biscuit/internal/match"
	"biscuit/internal/tpch"
)

// q6Page returns one 16 KiB page of encoded lineitem rows with shipdates
// spread over 1992–1998, and the matcher keys the planner derives from
// Q6's shipdate range.
func q6Page(b *testing.B) ([]byte, *match.Automaton) {
	sch := tpch.LineitemSchema
	keys, ok := planner.ExtractKeys(sch, db.RangeD(sch, "l_shipdate", "1994-01-01", "1995-01-01"))
	if !ok {
		b.Fatal("no matcher keys for Q6's shipdate range")
	}
	a, err := match.CompileHW(keys)
	if err != nil {
		b.Fatal(err)
	}
	pb := db.NewPageBuilder(16<<10, sch)
	for i := 0; ; i++ {
		ship := db.DateYMD(1992+i%7, 1+i%12, 1+i%28)
		r := db.Row{db.Int(int64(i / 4)), db.Int(int64(i % 2000)), db.Int(int64(i % 100)), db.Int(int64(i%4 + 1)),
			db.Int(int64(1 + i%50)), db.Dec(int64(90000 + i*37)), db.Dec(int64(i % 11)), db.Dec(int64(i % 9)),
			db.Str("N"), db.Str("O"), ship, db.Value{T: db.TDate, I: ship.I + 30}, db.Value{T: db.TDate, I: ship.I + 10},
			db.Str("DELIVER IN PERSON"), db.Str("TRUCK"), db.Str("carefully final deposits")}
		if !pb.Add(r) {
			return pb.Take(), a
		}
	}
}

var sink int

func BenchmarkContains(b *testing.B) {
	page, a := q6Page(b)
	b.SetBytes(int64(len(page)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if a.Contains(page) {
			sink++
		}
	}
}

func BenchmarkFeed(b *testing.B) {
	page, a := q6Page(b)
	s := a.NewStream()
	n := 0
	emit := func(match.Match) { n++ }
	b.SetBytes(int64(len(page)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Feed(page, emit)
	}
	sink += n
}
