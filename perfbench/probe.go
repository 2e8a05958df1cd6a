package main

import (
	"time"

	"ldv/internal/engine"
	"ldv/internal/sqlparse"
	"ldv/internal/sqlval"
)

// After the timed section a traced run probes the layers the wire hides: it
// sends a sample of the workload's statements straight into sqlparse, into
// the planner via EXPLAIN, and into the engine via Session.Exec or
// ExecPrepared.

// probeReps is how often each statement is parsed and explained; both take
// microseconds, so one pass would be all timer noise.
const probeReps = 200

type probeStmt struct {
	sql    string
	params []sqlval.Value
}

// probeParsePlan sets sqlparse.parse_us (ParseFingerprinted on each of the
// workload's statement texts) and plan.plan_us (EXPLAIN time minus the
// parse time of the EXPLAIN text, on each of explain).
func (r *report) probeParsePlan(db *engine.DB, texts []string, explain []probeStmt) {
	var parseNS time.Duration
	for _, t := range texts {
		d, err := timeParse(t)
		if err != nil {
			r.mismatch("parse probe %q: %v", t, err)
			return
		}
		parseNS += d
	}
	r.set("sqlparse.parse_us", float64(parseNS)/float64(len(texts))/1e3)

	sess := db.NewSession()
	defer sess.Close()
	var planNS time.Duration
	for _, st := range explain {
		text := "EXPLAIN " + st.sql
		parse, err := timeParse(text)
		if err != nil {
			r.mismatch("plan probe %q: %v", text, err)
			return
		}
		t0 := time.Now()
		for i := 0; i < probeReps; i++ {
			if _, err := sess.Exec(text, engine.ExecOptions{Params: st.params}); err != nil {
				r.mismatch("plan probe %q: %v", text, err)
				return
			}
		}
		planNS += time.Since(t0)/probeReps - parse
	}
	r.set("plan.plan_us", float64(planNS)/float64(len(explain))/1e3)
}

// timeParse is the mean ParseFingerprinted time of one text over probeReps.
func timeParse(text string) (time.Duration, error) {
	t0 := time.Now()
	for i := 0; i < probeReps; i++ {
		if _, _, err := sqlparse.ParseFingerprinted(text); err != nil {
			return 0, err
		}
	}
	return time.Since(t0) / probeReps, nil
}

// setEngineProbe fills the engine layer from a probe of ops operations that
// took execNS in the engine between counter readings a and b, plus
// lineageN paired lineage-minus-plain executions summing to lineageNS.
func (r *report) setEngineProbe(a, b counters, execNS time.Duration, ops int, lineageNS time.Duration, lineageN int) {
	r.set("engine.exec_us", float64(execNS)/float64(ops)/1e3)
	scanned, returned := delta(a, b, "engine.rows_scanned"), delta(a, b, "engine.rows_returned")
	r.set("engine.rows_scanned_per_returned", ratio(scanned, returned))
	r.set("engine.ns_per_row_scanned", ratio(float64(execNS), scanned))
	r.set("engine.lineage_us", ratio(float64(lineageNS)/1e3, float64(lineageN)))
}

// setRequestLedger splits the mean client call per operation into client
// side, engine and the explicit residual: what the server spends on a
// request outside the engine (residence minus engine time).
func (r *report) setRequestLedger() {
	call, resid, exec := r.values["client.call_us"], r.values["server.residence_us"], r.values["engine.exec_us"]
	r.set("ledger.residual_us", resid-exec)
	r.set("ledger.residual_frac", ratio(resid-exec, call))
	r.note("ledger per op: client call %.2f us = client side %.2f + server residence %.2f; residence = engine %.2f + residual %.2f",
		call, call-resid, resid, exec, resid-exec)
}

// setOpLayers fills the client, wire, server, plan, lock, WAL and runtime
// layers from a traced phase's totals and the counter readings around it.
func (r *report) setOpLayers(t opTotals, a, b counters) {
	ops := float64(len(t.all))
	call := ratio(float64(t.callNS), ops) / 1e3
	resid := ratio(float64(t.residNS), ops) / 1e3
	r.set("client.call_us", call)
	r.set("server.residence_us", resid)
	r.set("wire.client_side_us", call-resid)
	r.set("wire.bytes_per_op", ratio(float64(t.wireBytes), ops))
	r.set("wire.frames_per_op", ratio(float64(t.frames), ops))
	r.setEngineCounters(a, b, t.ops)
	r.setRuntimeLayer(a, b, t.ops)
}

// setSpanSelf reports the mean self time of the request-path spans.
func (r *report) setSpanSelf(spans map[string]spanTotals) {
	r.set("self.op_us", spans["op"].meanSelfUS())
	r.set("self.client_call_us", spans["client.call"].meanSelfUS())
}
