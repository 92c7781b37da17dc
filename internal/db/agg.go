package db

import (
	"fmt"
	"sort"
	"strings"
)

// AggFunc enumerates aggregate functions.
type AggFunc int

// Aggregate functions.
const (
	Sum AggFunc = iota
	CountAgg
	Avg
	Min
	Max
	CountDistinct
)

func (f AggFunc) String() string {
	return [...]string{"sum", "count", "avg", "min", "max", "count_distinct"}[f]
}

// Agg is one aggregate column: f(arg). For CountAgg, Arg may be nil
// (COUNT(*)).
type Agg struct {
	F    AggFunc
	Arg  Expr
	Name string
}

// aggState accumulates one aggregate for one group.
type aggState struct {
	count    int64
	sumI     int64 // cents or int accumulation
	sumT     Type
	min      Value
	max      Value
	seen     bool
	distinct map[string]struct{}
}

func (st *aggState) add(f AggFunc, v Value) {
	st.count++
	switch f {
	case Sum, Avg:
		st.sumI += v.I
		st.sumT = v.T
	case Min:
		if !st.seen || Compare(v, st.min) < 0 {
			st.min = v
		}
	case Max:
		if !st.seen || Compare(v, st.max) > 0 {
			st.max = v
		}
	case CountDistinct:
		if st.distinct == nil {
			st.distinct = make(map[string]struct{})
		}
		st.distinct[keyString(v)] = struct{}{}
	}
	st.seen = true
}

func (st *aggState) result(f AggFunc) Value {
	switch f {
	case Sum:
		return Value{T: st.sumT, I: st.sumI}
	case CountAgg:
		return Int(st.count)
	case Avg:
		if st.count == 0 {
			return Dec(0)
		}
		if st.sumT == TDecimal {
			return Dec(st.sumI / st.count)
		}
		return DecF(float64(st.sumI) / float64(st.count))
	case Min:
		return st.min
	case Max:
		return st.max
	case CountDistinct:
		return Int(int64(len(st.distinct)))
	}
	panic("db: unknown aggregate")
}

// HashAggOp groups by key expressions and computes aggregates. Output
// rows are ordered by group key for determinism.
type HashAggOp struct {
	Ex       *Exec
	In       Iterator
	GroupBy  []Expr
	GroupNms []string
	Aggs     []Agg

	sch  *Schema
	rows []Row
	at   int
}

func (h *HashAggOp) exec() *Exec { return h.Ex }

// Schema returns [group columns..., aggregate columns...]. Before Open
// the column types are provisional (groups default to string, aggregates
// to decimal); names — which is what plan construction needs — are
// always exact.
func (h *HashAggOp) Schema() *Schema {
	if h.sch != nil {
		return h.sch
	}
	cols := make([]Column, 0, len(h.GroupBy)+len(h.Aggs))
	for i := range h.GroupBy {
		name := fmt.Sprintf("g%d", i)
		if i < len(h.GroupNms) {
			name = h.GroupNms[i]
		}
		cols = append(cols, Column{Name: name, T: TString})
	}
	for i, a := range h.Aggs {
		name := a.Name
		if name == "" {
			name = fmt.Sprintf("%s%d", a.F, i)
		}
		cols = append(cols, Column{Name: name, T: TDecimal})
	}
	return NewSchema(cols...)
}

type aggGroup struct {
	keyRow Row
	states []aggState
}

// groupTable folds rows into per-group aggregate state. It is the one
// fold shared by HashAggOp on the host and the aggregating NDP scan on
// the device.
type groupTable struct {
	groupBy []Expr
	aggs    []Agg
	groups  map[string]*aggGroup
	order   []string // group keys in first-seen order
}

func newGroupTable(groupBy []Expr, aggs []Agg) *groupTable {
	return &groupTable{groupBy: groupBy, aggs: aggs, groups: make(map[string]*aggGroup)}
}

// add folds r into its group, creating the group on first sight.
func (g *groupTable) add(r Row) {
	var sb strings.Builder
	keyRow := make(Row, len(g.groupBy))
	for i, e := range g.groupBy {
		v := e.Eval(r)
		keyRow[i] = v
		sb.WriteString(keyString(v))
		sb.WriteByte(0)
	}
	k := sb.String()
	grp, ok := g.groups[k]
	if !ok {
		grp = &aggGroup{keyRow: keyRow, states: make([]aggState, len(g.aggs))}
		g.groups[k] = grp
		g.order = append(g.order, k)
	}
	for i, a := range g.aggs {
		v := Int(1)
		if a.Arg != nil {
			v = a.Arg.Eval(r)
		}
		grp.states[i].add(a.F, v)
	}
}

// rows returns one [group values..., aggregate results...] row per
// group, ordered by group key for determinism.
func (g *groupTable) rows() []Row {
	sort.Strings(g.order)
	out := make([]Row, 0, len(g.order))
	for _, k := range g.order {
		grp := g.groups[k]
		row := make(Row, 0, len(grp.keyRow)+len(g.aggs))
		row = append(row, grp.keyRow...)
		for i, a := range g.aggs {
			row = append(row, grp.states[i].result(a.F))
		}
		out = append(out, row)
	}
	return out
}

// Open drains the input, grouping and aggregating.
func (h *HashAggOp) Open() (err error) {
	if err := h.In.Open(); err != nil {
		return err
	}
	defer func() {
		if cerr := h.In.Close(); err == nil {
			err = cerr
		}
	}()
	gt := newGroupTable(h.GroupBy, h.Aggs)
	in := NewRowBatch(h.Ex.batchCap())
	for {
		n, err := h.In.NextBatch(in)
		if err != nil {
			return err
		}
		if n == 0 {
			break
		}
		h.Ex.chargeHost(h.Ex.Cost.HostAggCPR * float64(n))
		for ri := 0; ri < n; ri++ {
			gt.add(in.Row(ri))
		}
	}
	if len(h.GroupBy) == 0 && len(gt.order) == 0 {
		// SQL scalar aggregates yield one row even over empty input.
		gt.groups[""] = &aggGroup{states: make([]aggState, len(h.Aggs))}
		gt.order = append(gt.order, "")
	}
	h.rows = gt.rows()
	h.at = 0
	// Build output schema from the first group (or a placeholder).
	cols := make([]Column, 0, len(h.GroupBy)+len(h.Aggs))
	for i := range h.GroupBy {
		name := fmt.Sprintf("g%d", i)
		if i < len(h.GroupNms) {
			name = h.GroupNms[i]
		}
		t := TString
		if len(h.rows) > 0 {
			t = h.rows[0][i].T
		}
		cols = append(cols, Column{Name: name, T: t})
	}
	for i, a := range h.Aggs {
		name := a.Name
		if name == "" {
			name = fmt.Sprintf("%s%d", a.F, i)
		}
		t := TDecimal
		if len(h.rows) > 0 {
			t = h.rows[0][len(h.GroupBy)+i].T
		}
		cols = append(cols, Column{Name: name, T: t})
	}
	h.sch = NewSchema(cols...)
	return nil
}

// NextBatch emits grouped rows in key order.
func (h *HashAggOp) NextBatch(b *RowBatch) (int, error) {
	b.Reset()
	n := 0
	for h.at < len(h.rows) && !b.Full() {
		b.AppendRow(h.rows[h.at])
		h.at++
		n++
	}
	return n, nil
}

// Close releases group state.
func (h *HashAggOp) Close() error {
	h.rows = nil
	return nil
}

// ScalarAgg computes aggregates over the whole input (no grouping),
// always emitting exactly one row.
func ScalarAgg(ex *Exec, in Iterator, aggs ...Agg) *HashAggOp {
	return &HashAggOp{Ex: ex, In: in, Aggs: aggs}
}
