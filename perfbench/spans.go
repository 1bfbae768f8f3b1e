package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
)

// span is one timed interval of the traced run. Spans of one request or
// iteration share Trace; Parent is the index of the enclosing span in the
// log, or -1 for a root.
type span struct {
	Trace  int64  `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_unix_ns"`
	End    int64  `json:"end_unix_ns"`
}

// spanLog keeps the traced run's spans in memory until the run ends. It is
// not safe for concurrent use: the paper workloads append from the one
// mutator goroutine, the service workload after its clients have stopped.
type spanLog struct {
	spans []span
}

// add records a span and returns its ID for use as a parent.
func (l *spanLog) add(trace int64, parent int, name string, start, end int64) int {
	id := len(l.spans)
	l.spans = append(l.spans, span{Trace: trace, ID: id, Parent: parent, Name: name, Start: start, End: end})
	return id
}

// selfTimes returns each span name's total self time in nanoseconds: a
// span's duration minus the part of its interval its children cover.
func (l *spanLog) selfTimes() map[string]int64 {
	children := make([][]int, len(l.spans))
	for _, s := range l.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self := make(map[string]int64)
	for _, s := range l.spans {
		self[s.Name] += (s.End - s.Start) - covered(s, l.spans, children[s.ID])
	}
	return self
}

// covered returns how much of parent's interval the union of the given
// child spans covers.
func covered(parent span, all []span, kids []int) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(all[k].Start, parent.Start), min(all[k].End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}

// writeJSONL writes the spans, one JSON object per line, to path.
func (l *spanLog) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
