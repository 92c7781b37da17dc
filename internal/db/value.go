// Package db is the relational engine the TPC-H reproduction runs on —
// the stand-in for MariaDB 5.5 + XtraDB in the paper's §V-C: slotted
// 16 KiB pages on the in-storage file system, a typed row codec, an
// expression evaluator, and a volcano-style executor whose table scans
// can run either on the host (Conv) or offloaded into the SSD behind the
// per-channel pattern matcher (Biscuit).
package db

import (
	"fmt"
	"time"
)

// Type enumerates column types.
type Type uint8

// Column types. Dates are stored in row pages as 10-byte ASCII
// YYYY-MM-DD — the layout choice that makes date predicates amenable to
// the key-based hardware matcher, as the paper's offloaded queries
// require.
const (
	TInt Type = iota
	TDecimal
	TDate
	TString
)

func (t Type) String() string {
	switch t {
	case TInt:
		return "int"
	case TDecimal:
		return "decimal"
	case TDate:
		return "date"
	case TString:
		return "string"
	}
	return "?"
}

// Value is one typed cell. Decimals are fixed-point with two fraction
// digits stored in I (cents); dates are days since 1970-01-01 in I.
type Value struct {
	T Type
	I int64
	S string
}

// Int builds an integer value.
func Int(v int64) Value { return Value{T: TInt, I: v} }

// Dec builds a decimal from cents (e.g. Dec(12345) = 123.45).
func Dec(cents int64) Value { return Value{T: TDecimal, I: cents} }

// DecF builds a decimal from a float, rounding to cents.
func DecF(f float64) Value {
	if f >= 0 {
		return Value{T: TDecimal, I: int64(f*100 + 0.5)}
	}
	return Value{T: TDecimal, I: int64(f*100 - 0.5)}
}

// Str builds a string value.
func Str(s string) Value { return Value{T: TString, S: s} }

// DateYMD builds a date value from calendar components. Out-of-range
// months and days normalise as time.Date does: the month carries into
// the year, then d-1 days are added to the 1st of that month.
func DateYMD(y, m, d int) Value {
	carry := floorDiv(m-1, 12)
	y, m = y+carry, m-12*carry
	// Hinnant's days-from-civil: years start on 1 March, so the leap day
	// ends the year, and repeat every 400-year era of 146097 days.
	if m <= 2 {
		y--
	}
	era := floorDiv(y, 400)
	yoe := y - era*400
	doy := (153*((m+9)%12) + 2) / 5 // days from 1 March to the 1st of m
	doe := yoe*365 + yoe/4 - yoe/100 + doy
	const epoch = 719468 // days from 0000-03-01 to 1970-01-01
	return Value{T: TDate, I: int64(era*146097 + doe - epoch + d - 1)}
}

// floorDiv is a/b rounded toward negative infinity, for b > 0.
func floorDiv(a, b int) int {
	q := a / b
	if a%b < 0 {
		q--
	}
	return q
}

// MustDate parses "YYYY-MM-DD".
func MustDate(s string) Value {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		panic("db: bad date " + s)
	}
	return Value{T: TDate, I: int64(t.Unix() / 86400)}
}

// DateString renders a date value as YYYY-MM-DD.
func (v Value) DateString() string {
	return time.Unix(v.I*86400, 0).UTC().Format("2006-01-02")
}

// Float returns the numeric value as float64 (decimals descaled).
func (v Value) Float() float64 {
	if v.T == TDecimal {
		return float64(v.I) / 100
	}
	return float64(v.I)
}

func (v Value) String() string {
	switch v.T {
	case TInt:
		return fmt.Sprintf("%d", v.I)
	case TDecimal:
		return fmt.Sprintf("%d.%02d", v.I/100, abs64(v.I%100))
	case TDate:
		return v.DateString()
	case TString:
		return v.S
	}
	return "?"
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// Compare orders two values of the same type: -1, 0, or 1. Comparing
// across types panics — the engine is strongly typed, like Biscuit's
// ports.
func Compare(a, b Value) int {
	if a.T != b.T {
		panic(fmt.Sprintf("db: comparing %v with %v", a.T, b.T))
	}
	if a.T == TString {
		switch {
		case a.S < b.S:
			return -1
		case a.S > b.S:
			return 1
		}
		return 0
	}
	switch {
	case a.I < b.I:
		return -1
	case a.I > b.I:
		return 1
	}
	return 0
}

// Equal reports whether two same-typed values are equal.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Row is one tuple.
type Row []Value

// Clone copies a row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}
