package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// report collects one run's outcome: the operation counts, every output
// mismatch the checks found, and the measured metric values by name.
type report struct {
	workload   string
	attempted  int
	failed     int
	mismatches []string
	values     map[string]float64
	notes      []string // human-readable ledger lines, written to stderr
}

func newReport(workload string) *report {
	return &report{workload: workload, values: map[string]float64{}}
}

// maxMismatches bounds the list a badly broken run accumulates; the first
// few describe the failure and the run fails either way.
const maxMismatches = 20

func (r *report) mismatch(format string, args ...any) {
	if len(r.mismatches) < maxMismatches {
		r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
	}
}

func (r *report) correct() bool { return len(r.mismatches) == 0 }

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result renders the JSON result line for the given metric set. A metric
// the definition says this workload measures must be present; a layer the
// workload does not exercise reports 0.
func (r *report) result(defs []metricDef) ([]byte, error) {
	out := resultLine{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok && d.measuredOn(r.workload) {
			return nil, fmt.Errorf("%s: metric %s was not measured", r.workload, d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: metric %s is not a number", r.workload, d.Name)
		}
		out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return json.Marshal(out)
}

// writeLedger prints the run's human-readable ledger: every measured value
// with its meaning on this workload, then the notes.
func (r *report) writeLedger(w io.Writer) {
	names := make([]string, 0, len(r.values))
	for n := range r.values {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "perfbench %s: attempted %d, failed %d\n", r.workload, r.attempted, r.failed)
	for _, n := range names {
		d, _ := lookupMetric(n)
		fmt.Fprintf(w, "  %-32s %14.4f %-6s %s\n", n, r.values[n], d.Unit, d.meaning(r.workload))
	}
	for _, l := range r.notes {
		fmt.Fprintln(w, "  "+l)
	}
}

// ---- latency samples ----

// latencies holds per-operation durations in nanoseconds.
type latencies []int64

func (l *latencies) add(d time.Duration) { *l = append(*l, int64(d)) }

// pct returns the p-th percentile (0 < p < 100) by nearest rank, in
// microseconds, and how many samples lie beyond it.
func (l latencies) pct(p float64) (us float64, beyond int) {
	if len(l) == 0 {
		return 0, 0
	}
	s := append(latencies(nil), l...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return float64(s[rank-1]) / 1e3, len(s) - rank
}

func (l latencies) p50() float64 {
	us, _ := l.pct(50)
	return us
}

// meanUS is the arithmetic mean in microseconds; means add up across
// layers where medians do not, so the ledger uses them.
func (l latencies) meanUS() float64 {
	if len(l) == 0 {
		return 0
	}
	var sum int64
	for _, v := range l {
		sum += v
	}
	return float64(sum) / float64(len(l)) / 1e3
}

// opTotals is what the client side observed over one phase of an oltp or
// analytic run: latencies per operation class and overall, response bytes
// per class, summed client call and server residence time, wire traffic,
// and operation counts.
type opTotals struct {
	classes   [3]latencies
	respBytes [3]int64
	all       latencies
	callNS    int64
	residNS   int64
	wireBytes int64
	frames    int64
	ops       int
	failed    int
	conflicts int
}

// segments is how many equal parts a measured section is cut into. The
// throughput of a run is the median of its parts' throughputs, so a burst
// of interference from outside the process moves it less.
const segments = 10

func (r *report) noteRates(rates []float64) {
	s := "segment throughputs (ops/s):"
	for _, v := range rates {
		s += fmt.Sprintf(" %.1f", v)
	}
	r.note("%s", s)
}

// minTailSamples is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minTailSamples = 10

// tail reports the workload's fixed tail percentile and notes when the run
// was too short to support it.
func (r *report) tail(name string, l latencies, p float64) float64 {
	us, beyond := l.pct(p)
	if beyond < minTailSamples {
		r.note("warning: %s (p%g) has only %d samples beyond it", name, p, beyond)
	}
	return us
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio is a/b, or 0 when nothing was attempted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
