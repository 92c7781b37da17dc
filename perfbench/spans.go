package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// spanLog keeps the traced run's wall-clock spans in memory — one per
// call the benchmark makes into the system — and writes them once, at
// exit, in the Chrome trace format cmd/tracecheck validates. Every span
// carries the run id and its parent's index, so the nesting survives
// export. A nil *spanLog records nothing.
type spanLog struct {
	runID string
	t0    time.Time
	spans []span
	open  []int // stack of open span indices
}

type span struct {
	name       string
	args       map[string]any
	parent     int // -1 at the root
	start, end time.Duration
}

func newSpanLog(runID string) *spanLog {
	return &spanLog{runID: runID, t0: time.Now()}
}

func (l *spanLog) begin(name string, args map[string]any) int {
	if l == nil {
		return -1
	}
	parent := -1
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	l.spans = append(l.spans, span{name: name, args: args, parent: parent, start: time.Since(l.t0)})
	l.open = append(l.open, len(l.spans)-1)
	return len(l.spans) - 1
}

func (l *spanLog) end(i int) {
	if l == nil || i < 0 {
		return
	}
	l.spans[i].end = time.Since(l.t0)
	l.open = l.open[:len(l.open)-1]
}

// chromeEvent is one Chrome trace-format event.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// write exports every span as a complete ("X") event on one named
// thread, timestamps in microseconds.
func (l *spanLog) write(path string) error {
	evs := []chromeEvent{{Name: "thread_name", Ph: "M", Pid: 1, Tid: 1, Args: map[string]any{"name": "perfbench"}}}
	for i, s := range l.spans {
		dur := float64(s.end-s.start) / 1e3
		args := map[string]any{"run_id": l.runID, "span": i, "parent": s.parent}
		for k, v := range s.args {
			args[k] = v
		}
		evs = append(evs, chromeEvent{Name: s.name, Ph: "X", Pid: 1, Tid: 1, Ts: float64(s.start) / 1e3, Dur: &dur, Args: args})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
