package db

import (
	"math/rand"
	"testing"
	"time"
)

// refDate is the reference DateYMD: time.Date's own normalisation.
func refDate(y, m, d int) int64 {
	return time.Date(y, time.Month(m), d, 0, 0, 0, 0, time.UTC).Unix() / 86400
}

func TestDateYMDTable(t *testing.T) {
	cases := []struct {
		y, m, d int
		want    string // as time.Date normalises it
	}{
		{1970, 1, 1, "1970-01-01"},
		{1969, 12, 31, "1969-12-31"},
		{1995, 1, 17, "1995-01-17"},
		{2000, 2, 29, "2000-02-29"}, // 400-year leap
		{1900, 2, 29, "1900-03-01"}, // century, not leap
		{1996, 13, 1, "1997-01-01"},
		{1996, 0, 1, "1995-12-01"},
		{1996, -30, 1, "1993-06-01"},
		{1996, 3, 0, "1996-02-29"},
		{1995, 3, 0, "1995-02-28"},
		{1995, 1, -400, "1993-11-26"},
		{1995, 2805, 2805, "2236-05-06"},
		{0, 1, 1, "0000-01-01"},
		{0, 2, 29, "0000-02-29"}, // year 0 is a leap year
		{283305, 1, 1, "283305-01-01"},
	}
	for _, c := range cases {
		got := DateYMD(c.y, c.m, c.d)
		if got.I != refDate(c.y, c.m, c.d) {
			t.Errorf("DateYMD(%d, %d, %d) = day %d, time.Date gives %d", c.y, c.m, c.d, got.I, refDate(c.y, c.m, c.d))
		}
		if s := time.Unix(got.I*86400, 0).UTC().Format("2006-01-02"); s != c.want {
			t.Errorf("DateYMD(%d, %d, %d) = %s, want %s", c.y, c.m, c.d, s, c.want)
		}
	}
}

// TestDateYMDMatchesTimeDate covers the whole range parseDate can
// produce from ten ASCII bytes, digits or not: years 0..283305 and
// months and days up to 2805, plus negative months and days.
func TestDateYMDMatchesTimeDate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		y, m, d := rng.Intn(283306), rng.Intn(2836)-30, rng.Intn(3206)-400
		if i%4 == 0 { // dense near real dates
			y, m, d = 1900+rng.Intn(200), rng.Intn(14), rng.Intn(33)
		}
		if got, want := DateYMD(y, m, d).I, refDate(y, m, d); got != want {
			t.Fatalf("DateYMD(%d, %d, %d) = day %d, time.Date gives %d", y, m, d, got, want)
		}
	}
}
