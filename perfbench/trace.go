package main

import "sort"

// Traced runs record spans from the benchmark's own code, around the calls
// it makes into each layer: name, start, end, and the span that caused it.
// Every goroutine owns one recorder, so recording takes no lock; spans of
// one operation share the root's index as their identifier. Spans stay in
// memory until the run ends, when selfTimes folds them into per-name self
// time. A nil *recorder records nothing: untraced runs pass nil.

type span struct {
	name       string
	parent     int // index in the same recorder, -1 for a root
	start, end int64
}

type recorder struct{ spans []span }

func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{name: name, parent: parent, start: now()})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	r.spans[id].end = now()
}

// add records a span whose interval was measured elsewhere, such as a
// server residence stamped by the pipe wrapper.
func (r *recorder) add(name string, parent int, start, end int64) {
	if r == nil {
		return
	}
	r.spans = append(r.spans, span{name: name, parent: parent, start: start, end: end})
}

// spanTotals is one span name's count, summed duration and summed self
// time (duration minus the part its children cover), in nanoseconds.
type spanTotals struct {
	count   int
	totalNS int64
	selfNS  int64
}

func (t spanTotals) meanSelfUS() float64 { return ratio(float64(t.selfNS), float64(t.count)) / 1e3 }

// selfTimes aggregates every recorder's spans by name. Children of one
// span never overlap: each goroutine has one operation in flight.
func selfTimes(recs ...*recorder) map[string]spanTotals {
	out := map[string]spanTotals{}
	for _, r := range recs {
		if r == nil {
			continue
		}
		child := make([]int64, len(r.spans))
		for _, s := range r.spans {
			if s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range r.spans {
			t := out[s.name]
			t.count++
			t.totalNS += s.end - s.start
			t.selfNS += s.end - s.start - child[i]
			out[s.name] = t
		}
	}
	return out
}

// spanNames lists the aggregated names in order, for the ledger.
func spanNames(m map[string]spanTotals) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// noteSpans writes the span table into the run's ledger.
func (r *report) noteSpans(m map[string]spanTotals) {
	r.note("spans: name, count, mean total us, mean self us")
	for _, n := range spanNames(m) {
		t := m[n]
		r.note("  %-24s %9d %12.2f %12.2f", n, t.count, ratio(float64(t.totalNS), float64(t.count))/1e3, t.meanSelfUS())
	}
}
