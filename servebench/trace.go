package main

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"time"
)

// spanName identifies the public call a span wraps.
type spanName uint8

const (
	spanQueryOp      spanName = iota // one /query's handler-order calls, end to end
	spanCanonicalize                 // Engine.Canonicalize
	spanCoalesce                     // Coalescer.Do (its children: acquire, query)
	spanAcquire                      // Gate.Acquire
	spanQuery                        // Engine.QueryContext
	spanAdd                          // Engine.AddDocument
	spanDelete                       // Engine.DeleteDocument
	spanParse                        // plan.Parse
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"inproc.query", "engine.canonicalize", "admission.coalesce", "admission.acquire",
	"engine.query", "engine.add", "engine.delete", "plan.parse",
}

func (n spanName) String() string { return spanNames[n] }

// span is one timed call. Times are nanoseconds since the recorder's base;
// parent is the index of the enclosing span in the same recorder, or -1.
type span struct {
	name       spanName
	op         int32
	parent     int32
	start, end int64
}

// recorder holds spans in memory allocated before the run, so recording
// allocates nothing; once full it drops further spans and counts them.
type recorder struct {
	base    time.Time
	spans   []span
	dropped int
}

func newRecorder(capacity int) *recorder {
	return &recorder{base: time.Now(), spans: make([]span, 0, capacity)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// begin opens a span and returns its index (-1 when the recorder is nil,
// which is an untraced replay, or full).
func (r *recorder) begin(name spanName, op, parent int32) int32 {
	if r == nil {
		return -1
	}
	if len(r.spans) == cap(r.spans) {
		r.dropped++
		return -1
	}
	r.spans = append(r.spans, span{name: name, op: op, parent: parent, start: r.now()})
	return int32(len(r.spans) - 1)
}

func (r *recorder) end(i int32) {
	if r != nil && i >= 0 {
		r.spans[i].end = r.now()
	}
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its children. Overlapping children are counted
// once, and child time outside the parent's interval is ignored.
func selfTimes(spans []span) []int64 {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.parent >= 0 && int(s.parent) < len(spans) {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	var iv [][2]int64
	for i, s := range spans {
		self[i] = s.end - s.start
		iv = iv[:0]
		for _, c := range children[i] {
			lo, hi := max(spans[c].start, s.start), min(spans[c].end, s.end)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		slices.SortFunc(iv, func(a, b [2]int64) int { return int(a[0] - b[0]) })
		var covered, curLo, curHi int64
		for j, v := range iv {
			switch {
			case j == 0:
				curLo, curHi = v[0], v[1]
			case v[0] <= curHi:
				curHi = max(curHi, v[1])
			default:
				covered += curHi - curLo
				curLo, curHi = v[0], v[1]
			}
		}
		if len(iv) > 0 {
			covered += curHi - curLo
		}
		self[i] -= covered
	}
	return self
}

// spanStats groups durations (and self times) by span name.
type spanStats struct {
	dur  [numSpanNames][]int64
	self [numSpanNames][]int64
}

func collectSpans(spans []span, self []int64) *spanStats {
	st := &spanStats{}
	for i, s := range spans {
		st.dur[s.name] = append(st.dur[s.name], s.end-s.start)
		st.self[s.name] = append(st.self[s.name], self[i])
	}
	return st
}

// writeSpans writes the trace file: two header lines, then one tab-separated
// line per span (see README.md, "Trace file").
func writeSpans(path string, spans []span, self []int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "# servebench spans v1")
	fmt.Fprintln(w, "# span\top\tparent\tname\tstart_ns\tend_ns\tself_ns")
	for i, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\t%d\n", i, s.op, s.parent, s.name, s.start, s.end, self[i])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
