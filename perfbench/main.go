// Command perfbench is the repository benchmark. One invocation runs one
// workload in-process against the LDV stack (client, wire, server, engine,
// WAL, and the audit → package → replay pipeline), checks every output it
// produced, and prints one JSON result line:
//
//	perfbench --workload oltp|analytic|ldv --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics of a traced run. metrics.go defines
// every metric and which end-to-end number each layer metric should move;
// README.md explains the workloads.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// config is one invocation's settings. The seed is the only source of the
// workload's inputs; the program under test sees only generated SQL and data.
type config struct {
	seed    uint64
	seconds int
	trace   bool
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (*report, error){
	"oltp":     runOLTP,
	"analytic": runAnalytic,
	"ldv":      runLDV,
}

func main() {
	name := flag.String("workload", "", "workload to run: oltp, analytic or ldv")
	seed := flag.Uint64("seed", 1, "seed for the generated data and operation stream")
	seconds := flag.Int("seconds", 10, "nominal length of the measured section")
	traced := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end metrics")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload %s --seed N --seconds S --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	rep, err := run(config{seed: *seed, seconds: *seconds, trace: *traced == 1})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	defs := endToEnd
	if *traced == 1 {
		defs = perLayer
	}
	line, err := rep.result(defs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep.writeLedger(os.Stderr)
	fmt.Println(string(line))
	if !rep.correct() {
		for _, m := range rep.mismatches {
			fmt.Fprintln(os.Stderr, "perfbench: output check failed:", m)
		}
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, "|")
}
