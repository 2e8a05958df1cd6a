package main

import (
	"fmt"
	"strings"
)

// metricDef defines one metric: its name, unit and better direction (the
// part BENCHMARK.json repeats), the regression bound for end-to-end
// metrics, and for layer metrics which end-to-end metric it should move on
// which workload and where it should not move. The self-test checks
// BENCHMARK.json against these tables.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end: allowed worsening as a share of the parent's median
	Doc    string

	// Per-layer only.
	Layer string
	On    []string // workloads that measure it; the others report 0
	Moves string   // the end-to-end metric and workload it should move
	Still string   // where it should not move
	Exact []string // workloads on which a run repeats it exactly for one seed
}

var allWorkloads = []string{"oltp", "analytic", "ldv"}

// opClasses names each workload's three operation classes; the op*_
// end-to-end metrics mean these.
var opClasses = map[string][3]string{
	"oltp":     {"point read of one order", "range read of lineitem over 8 order keys", "write transaction (BEGIN, INSERT, UPDATE, COMMIT)"},
	"analytic": {"plain Table II query", "SELECT PROVENANCE Table II query", "plain single-table scan query (Q1 family)"},
	"ldv":      {"server-included audit plus package build", "server-excluded audit plus package build", "server-included replay (prepare plus run)"},
}

// endToEnd are the numbers a user of the system waits on, measured with
// tracing off. Every workload reports every one of them.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Doc: "median set-up time over several set-ups in the run: oltp TPC-H load, index build, checkpoint, WAL and server start; analytic load and server start; ldv the data template"},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25,
		Doc: "operations (op1, op2, op3 together) completed per second of the measured section"},
	{Name: "heap_live_mb", Unit: "MB", Better: "lower", Bound: 0.1,
		Doc: "live heap after runtime.GC() at the end of the measured section"},
	{Name: "req_p50_us", Unit: "us", Better: "lower", Bound: 0.25,
		Doc: "median latency of a client request as the client sees it: an oltp operation, an analytic query, an SQL statement of the ldv application"},
	{Name: "req_tail_us", Unit: "us", Better: "lower", Bound: 0.25,
		Doc: "tail latency of a client request: on oltp the median over segments of each segment's p99.9, on analytic p90, on ldv p99 (each the highest of p50, p90, p99, p99.9 with at least ten samples beyond it)"},
	{Name: "op1_p50_us", Unit: "us", Better: "lower", Bound: 0.25, Doc: "median latency of op1"},
	{Name: "op2_p50_us", Unit: "us", Better: "lower", Bound: 0.25, Doc: "median latency of op2"},
	{Name: "op3_p50_us", Unit: "us", Better: "lower", Bound: 0.25, Doc: "median latency of op3"},
	{Name: "op1_kb", Unit: "KB", Better: "lower", Bound: 0.1,
		Doc: "size of what op1 produces: response bytes per oltp point read or analytic plain query, Archive.TotalSize of the ldv server-included package"},
	{Name: "op2_kb", Unit: "KB", Better: "lower", Bound: 0.1,
		Doc: "size of what op2 produces: response bytes per oltp range read or analytic PROVENANCE query, Archive.TotalSize of the ldv server-excluded package"},
}

var (
	reqWorkloads = []string{"oltp", "analytic"}
	ldvOnly      = []string{"ldv"}
	oltpOnly     = []string{"oltp"}
)

// perLayer are the traced run's metrics, each measured from outside the
// program: spans around calls into a module's public functions, the pipe
// wrapper, and the counters the program publishes through obs.Default().
var perLayer = []metricDef{
	{Name: "client.call_us", Unit: "us", Better: "lower", Layer: "client", On: allWorkloads,
		Doc: "mean client call time per operation (per application statement on ldv); the base the layer times are subtracted from", Moves: "req_p50_us on every workload"},
	{Name: "client.op1_tail_us", Unit: "us", Better: "lower", Layer: "client", On: allWorkloads,
		Doc: "op1 latency at the workload's tail percentile (ldv: statements inside the server-included audit)", Moves: "req_tail_us on oltp"},
	{Name: "client.op2_tail_us", Unit: "us", Better: "lower", Layer: "client", On: reqWorkloads,
		Doc: "op2 latency at the workload's tail percentile", Moves: "req_tail_us on analytic"},
	{Name: "client.op3_tail_us", Unit: "us", Better: "lower", Layer: "client", On: reqWorkloads,
		Doc: "op3 latency at the workload's tail percentile", Moves: "req_tail_us on oltp"},
	{Name: "wire.client_side_us", Unit: "us", Better: "lower", Layer: "wire", On: reqWorkloads,
		Doc: "client call time minus server residence", Moves: "op1_p50_us on oltp", Still: "analytic (a negligible share)"},
	{Name: "wire.bytes_per_op", Unit: "bytes", Better: "lower", Layer: "wire", On: allWorkloads,
		Doc: "bytes both ways per operation (ldv: the wire.out.bytes counter per pipeline operation)", Moves: "op1_p50_us on oltp; op1_p50_us on ldv", Exact: []string{"analytic", "ldv"}},
	{Name: "wire.frames_per_op", Unit: "count", Better: "lower", Layer: "wire", On: allWorkloads,
		Doc: "wire frames both ways per operation", Moves: "op1_p50_us on oltp; op1_p50_us on ldv", Exact: allWorkloads},
	{Name: "server.residence_us", Unit: "us", Better: "lower", Layer: "server", On: reqWorkloads,
		Doc: "mean time from the last request byte the server reads to the first response byte it writes, per operation", Moves: "op1_p50_us and op3_p50_us on oltp"},
	{Name: "sqlparse.parse_us", Unit: "us", Better: "lower", Layer: "sqlparse", On: allWorkloads,
		Doc: "mean sqlparse.ParseFingerprinted time over the workload's statement texts", Moves: "op1_p50_us and op2_p50_us on ldv; op1_p50_us on analytic", Still: "oltp (prepared statements parse once)"},
	{Name: "plan.plan_us", Unit: "us", Better: "lower", Layer: "plan", On: allWorkloads,
		Doc: "mean EXPLAIN time minus the parse time of the EXPLAIN text", Moves: "op1_p50_us on analytic"},
	{Name: "plan.cache_hit_ratio", Unit: "ratio", Better: "higher", Layer: "plan", On: allWorkloads,
		Doc: "plan.cache_hits over plan-cache lookups in the traced section", Moves: "op1_p50_us on oltp", Exact: oltpOnly},
	{Name: "plan.index_scan_ratio", Unit: "ratio", Better: "higher", Layer: "plan", On: allWorkloads,
		Doc: "plan.index_scans over planned base-table access paths in the traced section", Moves: "op2_p50_us on oltp", Exact: oltpOnly},
	{Name: "engine.exec_us", Unit: "us", Better: "lower", Layer: "engine", On: allWorkloads,
		Doc: "mean engine time per operation, the workload's statements run directly through Session.Exec or ExecPrepared", Moves: "op1_p50_us on analytic", Still: "oltp (barely)"},
	{Name: "engine.rows_scanned_per_returned", Unit: "ratio", Better: "lower", Layer: "engine", On: allWorkloads,
		Doc: "engine.rows_scanned over engine.rows_returned in the engine probe", Moves: "op1_p50_us on analytic", Still: "oltp (barely)", Exact: allWorkloads},
	{Name: "engine.ns_per_row_scanned", Unit: "ns", Better: "lower", Layer: "engine", On: allWorkloads,
		Doc: "engine probe time per row scanned", Moves: "op1_p50_us on analytic", Still: "oltp (barely)"},
	{Name: "engine.lineage_us", Unit: "us", Better: "lower", Layer: "engine", On: allWorkloads,
		Doc: "mean lineage-collecting execution minus plain execution of the same query", Moves: "op2_p50_us and req_tail_us on analytic; op1_p50_us on ldv", Still: "op2_p50_us on ldv (server-excluded audits collect no lineage)"},
	{Name: "engine.lock_wait_us_per_op", Unit: "us", Better: "lower", Layer: "engine", On: oltpOnly,
		Doc: "wait.lock_table_ns per operation in the traced section; zero on single-session workloads", Moves: "req_tail_us on oltp", Still: "analytic and ldv (one session)"},
	{Name: "engine.conflict_frac", Unit: "ratio", Better: "lower", Layer: "engine", On: allWorkloads,
		Doc: "operations that failed on a write-write conflict over operations attempted", Moves: "the failed count"},
	{Name: "wal.bytes_per_commit", Unit: "bytes", Better: "lower", Layer: "engine", On: oltpOnly,
		Doc: "wal.bytes per WAL record appended (one per writing commit)", Moves: "op3_p50_us on oltp", Still: "analytic (no writes)", Exact: oltpOnly},
	{Name: "wal.flushes_per_commit", Unit: "ratio", Better: "lower", Layer: "engine", On: oltpOnly,
		Doc: "wal.flushes per WAL record appended: below 1 when group commit batches", Moves: "op3_p50_us on oltp", Still: "analytic (no writes)"},
	{Name: "wal.flush_us", Unit: "us", Better: "lower", Layer: "engine", On: oltpOnly,
		Doc: "mean wal.flush_ns per flush", Moves: "op3_p50_us on oltp", Still: "analytic (no writes)"},
	{Name: "ldv.native_run_s", Unit: "s", Better: "lower", Layer: "ldv", On: ldvOnly,
		Doc: "mean plain ldv.Run of the same application", Moves: "op1_p50_us on ldv"},
	{Name: "ldv.audit_run_s", Unit: "s", Better: "lower", Layer: "ldv", On: ldvOnly,
		Doc: "mean ldv.Audit (lineage on)", Moves: "op1_p50_us on ldv"},
	{Name: "ldv.audit_overhead_frac", Unit: "ratio", Better: "lower", Layer: "ldv", On: ldvOnly,
		Doc: "audit run over native run, minus one", Moves: "op1_p50_us on ldv"},
	{Name: "ldv.build_si_s", Unit: "s", Better: "lower", Layer: "ldv", On: ldvOnly,
		Doc: "mean ldv.BuildServerIncluded", Moves: "op1_p50_us and op1_kb on ldv"},
	{Name: "ldv.build_se_s", Unit: "s", Better: "lower", Layer: "ldv", On: ldvOnly,
		Doc: "mean ldv.BuildServerExcluded", Moves: "op2_p50_us on ldv"},
	{Name: "ldv.prepare_replay_s", Unit: "s", Better: "lower", Layer: "ldv", On: ldvOnly,
		Doc: "mean ldv.PrepareReplay of the server-included package", Moves: "op3_p50_us on ldv"},
	{Name: "ldv.replay_run_s", Unit: "s", Better: "lower", Layer: "ldv", On: ldvOnly,
		Doc: "mean ReplaySetup.Run of the server-included package", Moves: "op3_p50_us on ldv"},
	{Name: "deps.infer_ms", Unit: "ms", Better: "lower", Layer: "deps", On: ldvOnly,
		Doc: "deps.NewDefaultInferencer(trace).All() over one audit trace (once per run: it takes seconds)", Moves: "op1_p50_us on ldv"},
	{Name: "pack.marshal_ms", Unit: "ms", Better: "lower", Layer: "pack", On: ldvOnly,
		Doc: "mean Archive.Marshal of the server-included package", Moves: "op1_p50_us on ldv"},
	{Name: "pack.unmarshal_ms", Unit: "ms", Better: "lower", Layer: "pack", On: ldvOnly,
		Doc: "mean pack.Unmarshal of the server-included package", Moves: "op3_p50_us on ldv"},
	{Name: "prov.trace_nodes", Unit: "count", Better: "lower", Layer: "prov", On: ldvOnly,
		Doc: "nodes in the server-included audit trace", Moves: "op1_p50_us and op1_kb on ldv", Exact: ldvOnly},
	{Name: "ldv.relevant_tuples", Unit: "count", Better: "lower", Layer: "ldv", On: ldvOnly,
		Doc: "tuples the server-included package must carry", Moves: "op1_kb and op3_p50_us on ldv", Exact: ldvOnly},
	{Name: "ldv.dedup_ratio", Unit: "ratio", Better: "higher", Layer: "ldv", On: ldvOnly,
		Doc: "auditor.tuples.deduped over auditor.tuples.fetched in the server-included audit", Moves: "op1_p50_us on ldv", Exact: ldvOnly},
	{Name: "pack.compress_ratio", Unit: "ratio", Better: "lower", Layer: "pack", On: ldvOnly,
		Doc: "pack.compress.out_bytes over in_bytes in the server-included audit and build", Moves: "op1_kb on ldv"},
	{Name: "ledger.residual_us", Unit: "us", Better: "lower", Layer: "ledger", On: allWorkloads,
		Doc: "oltp and analytic: server residence minus engine time per operation; ldv: server-included audit plus build minus audit run and build", Moves: "op1_p50_us"},
	{Name: "ledger.residual_frac", Unit: "ratio", Better: "lower", Layer: "ledger", On: allWorkloads,
		Doc: "ledger.residual_us as a share of the client call (oltp, analytic) or of op1 (ldv)", Moves: "op1_p50_us"},
	{Name: "ledger.native_frac", Unit: "ratio", Better: "lower", Layer: "ledger", On: ldvOnly,
		Doc: "native run as a share of op1 on ldv", Moves: "op1_p50_us on ldv"},
	{Name: "ledger.monitor_frac", Unit: "ratio", Better: "lower", Layer: "ledger", On: ldvOnly,
		Doc: "auditor trace, dedup and spool time (auditor.*_ns histograms) as a share of op1 on ldv", Moves: "op1_p50_us on ldv"},
	{Name: "ledger.audit_other_frac", Unit: "ratio", Better: "lower", Layer: "ledger", On: ldvOnly,
		Doc: "audit run minus native run minus monitor time, as a share of op1 on ldv", Moves: "op1_p50_us on ldv"},
	{Name: "ledger.build_frac", Unit: "ratio", Better: "lower", Layer: "ledger", On: ldvOnly,
		Doc: "package build as a share of op1 on ldv", Moves: "op1_p50_us on ldv"},
	{Name: "go.alloc_bytes_per_op", Unit: "bytes", Better: "lower", Layer: "go", On: allWorkloads,
		Doc: "runtime TotalAlloc growth per operation in the traced section", Moves: "req_tail_us on oltp; heap_live_mb everywhere"},
	{Name: "go.gc_per_kop", Unit: "count", Better: "lower", Layer: "go", On: allWorkloads,
		Doc: "garbage collections per thousand operations in the traced section", Moves: "req_tail_us on oltp; heap_live_mb everywhere"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower", Layer: "trace", On: allWorkloads,
		Doc: "traced over untraced median (req_p50_us on oltp and analytic, op1_p50_us on ldv) within the traced run, minus one", Moves: "nothing: tracing is off in end-to-end runs"},
	{Name: "self.op_us", Unit: "us", Better: "lower", Layer: "trace", On: allWorkloads,
		Doc: "mean self time of an operation's root span: benchmark-side work around the client calls, or on ldv the gaps between audit, build and replay calls", Moves: "op1_p50_us"},
	{Name: "self.client_call_us", Unit: "us", Better: "lower", Layer: "trace", On: reqWorkloads,
		Doc: "mean self time of a client.call span: the call minus its server residence", Moves: "op1_p50_us on oltp"},
}

func (d metricDef) measuredOn(workload string) bool {
	if d.Layer == "" {
		return true
	}
	for _, w := range d.On {
		if w == workload {
			return true
		}
	}
	return false
}

// meaning is the metric's documentation with the workload's op class
// spelled out.
func (d metricDef) meaning(workload string) string {
	for i, c := range opClasses[workload] {
		op := fmt.Sprintf("op%d_", i+1)
		if strings.HasPrefix(d.Name, op) || strings.HasPrefix(d.Name, "client."+op) {
			return fmt.Sprintf("%s (op%d: %s)", d.Doc, i+1, c)
		}
	}
	return d.Doc
}

func lookupMetric(name string) (metricDef, bool) {
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
