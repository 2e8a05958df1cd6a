package main

import (
	"fmt"
	"hash/fnv"
	"strings"
	"time"

	"ldv/internal/engine"
	"ldv/internal/server"
	"ldv/internal/sqlval"
	"ldv/internal/tpch"
)

// The analytic workload: one closed-loop session on TPC-H SF 0.005 with no
// secondary indexes, text protocol, round-robin through the 18 Table II
// queries (tpch.Queries, Q1-1…Q4-5), each once plain and once as SELECT
// PROVENANCE. Full scans, hash joins, LIKE, aggregation and lineage
// propagation dominate; there are no writes, so the WAL is idle. op1 is a
// plain query, op2 a PROVENANCE query and op3 a plain single-table scan
// query (the Q1 family, a subset of op1 without joins).
const (
	analyticSF     = 0.005
	analyticSetups = 5
	// analyticQueriesPerSecond sizes the fixed work of a run: seconds × this
	// many queries, which takes about --seconds on a 2-core machine.
	analyticQueriesPerSecond = 18
	// analyticTailPct is the highest of p50, p90, p99 and p99.9 with at
	// least ten samples beyond it, over all queries and per class.
	analyticTailPct     = 90
	analyticProbeRounds = 2
)

type analyticStmt struct {
	id         string
	sql        string
	provenance bool
	scanOnly   bool
	rows       int    // reference row count
	digest     uint64 // reference row-multiset digest
}

// analyticStmts builds the round: every Table II query plain, then as
// SELECT PROVENANCE.
func analyticStmts(cfg tpch.Config) []analyticStmt {
	var out []analyticStmt
	for _, q := range tpch.Queries(cfg) {
		out = append(out,
			analyticStmt{id: q.ID, sql: q.SQL, scanOnly: q.Family == 1},
			analyticStmt{id: q.ID, sql: "SELECT PROVENANCE" + strings.TrimPrefix(q.SQL, "SELECT"), provenance: true})
	}
	return out
}

// rowDigest hashes a result's rows as a multiset, so plain and PROVENANCE
// answers compare equal whatever order the executor produced them in.
func rowDigest(rows [][]sqlval.Value) uint64 {
	var sum uint64
	var buf []byte
	for _, row := range rows {
		h := fnv.New64a()
		buf = sqlval.EncodeRow(buf[:0], row)
		_, _ = h.Write(buf) // hash writes cannot fail
		sum += h.Sum64()
	}
	return sum
}

func runAnalytic(cfg config) (*report, error) {
	rep := newReport("analytic")
	tcfg := tpch.Config{SF: analyticSF, Seed: cfg.seed}
	var db *engine.DB
	var d *pipeDialer
	var sess *session
	var setups []float64
	for i := 0; i < analyticSetups; i++ {
		if d != nil {
			d.closeAll([]*session{sess})
		}
		t0 := time.Now()
		db = engine.NewDB(nil)
		if _, err := tpch.Load(db, tcfg); err != nil {
			return nil, err
		}
		d = &pipeDialer{srv: server.New(db, nil)}
		var err error
		if sess, err = d.dial("analytic"); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.set("setup_s", median(setups))

	stmts := analyticStmts(tcfg)
	for i := range stmts {
		res, err := db.Exec(stmts[i].sql, engine.ExecOptions{})
		if err != nil {
			d.closeAll([]*session{sess})
			return nil, fmt.Errorf("reference %s: %w", stmts[i].id, err)
		}
		stmts[i].rows, stmts[i].digest = len(res.Rows), rowDigest(res.Rows)
	}

	// run sends n statements, continuing the round-robin, and returns the
	// throughput of each of its segments.
	next := 0
	run := func(s *session, rec *recorder, n int) (opTotals, []float64) {
		var t opTotals
		var rates []float64
		wire0 := s.st.in.bytes + s.st.out.bytes
		frames0 := s.st.in.frames + s.st.out.frames
		per := max(n/segments, 1)
		seg := time.Now()
		for i := 0; i < n; i++ {
			if i > 0 && i%per == 0 {
				rates = append(rates, float64(per)/time.Since(seg).Seconds())
				seg = time.Now()
			}
			st := &stmts[next%len(stmts)]
			next++
			root := rec.begin("op", -1)
			call := rec.begin("client.call", root)
			in0, r0 := s.st.in.bytes, s.st.residenceNS.Load()
			c0 := now()
			res, err := s.conn.Query(st.sql)
			c1 := now()
			rec.end(call)
			rec.end(root)
			t.ops++
			if err != nil {
				t.failed++
				continue
			}
			d := time.Duration(c1 - c0)
			t.callNS += c1 - c0
			if rec != nil {
				t.residNS += s.st.residenceNS.Load() - r0
				rec.add("server.residence", call, s.st.residentStart.Load(), s.st.residentEnd.Load())
			}
			t.all.add(d)
			class := 0
			if st.provenance {
				class = 1
			}
			t.classes[class].add(d)
			t.respBytes[class] += s.st.in.bytes - in0
			if st.scanOnly {
				t.classes[2].add(d)
				t.respBytes[2] += s.st.in.bytes - in0
			}
			if len(res.Rows) != st.rows || rowDigest(res.Rows) != st.digest {
				rep.mismatch("%s (provenance %v) returned %d rows that differ from the %d reference rows", st.id, st.provenance, len(res.Rows), st.rows)
			}
		}
		if n%per == 0 {
			rates = append(rates, float64(per)/time.Since(seg).Seconds())
		}
		t.wireBytes = s.st.in.bytes + s.st.out.bytes - wire0
		t.frames = s.st.in.frames + s.st.out.frames - frames0
		return t, rates
	}

	run(sess, nil, len(stmts)) // warm-up: one untimed round
	total := analyticQueriesPerSecond * cfg.seconds / segments * segments
	if !cfg.trace {
		t, rates := run(sess, nil, total)
		rep.set("heap_live_mb", liveHeapMB()) // the open session keeps the database live
		d.closeAll([]*session{sess})
		rep.attempted, rep.failed = t.ops, t.failed
		rep.noteRates(rates)
		rep.set("ops_per_s", median(rates))
		rep.set("req_p50_us", t.all.p50())
		rep.set("req_tail_us", rep.tail("req_tail_us", t.all, analyticTailPct))
		for k := 0; k < 3; k++ {
			rep.set(fmt.Sprintf("op%d_p50_us", k+1), t.classes[k].p50())
		}
		rep.set("op1_kb", ratio(float64(t.respBytes[0]), float64(len(t.classes[0])))/1024)
		rep.set("op2_kb", ratio(float64(t.respBytes[1]), float64(len(t.classes[1])))/1024)
		return rep, nil
	}

	// Traced run: the first half untraced, the second half on a session whose
	// server end times residence, with spans recorded.
	plain, _ := run(sess, nil, total/2)
	d.closeAll([]*session{sess})
	d = &pipeDialer{srv: d.srv, timed: true}
	sess, err := d.dial("analytic-traced")
	if err != nil {
		return nil, err
	}
	rec := &recorder{}
	a := readCounters()
	tr, _ := run(sess, rec, total-total/2)
	b := readCounters()
	d.closeAll([]*session{sess})
	rep.attempted, rep.failed = plain.ops+tr.ops, plain.failed+tr.failed
	rep.setOpLayers(tr, a, b)
	rep.set("engine.conflict_frac", 0)
	rep.set("trace.overhead_frac", ratio(tr.all.p50(), plain.all.p50())-1)
	for k := 0; k < 3; k++ {
		rep.set(fmt.Sprintf("client.op%d_tail_us", k+1), rep.tail(fmt.Sprintf("client.op%d_tail_us", k+1), tr.classes[k], analyticTailPct))
	}
	spans := selfTimes(rec)
	rep.setSpanSelf(spans)
	rep.noteSpans(spans)
	probeAnalytic(rep, db, stmts)
	rep.setRequestLedger()
	return rep, nil
}

// probeAnalytic runs one round of the statements directly through
// Session.Exec: parse, plan and execute without the wire.
func probeAnalytic(rep *report, db *engine.DB, stmts []analyticStmt) {
	texts := make([]string, len(stmts))
	var explain []probeStmt
	for i, st := range stmts {
		texts[i] = st.sql
		if !st.provenance {
			explain = append(explain, probeStmt{sql: st.sql})
		}
	}
	rep.probeParsePlan(db, texts, explain)

	sess := db.NewSession()
	defer sess.Close()
	a := readCounters()
	var execNS time.Duration
	plainNS := map[string]time.Duration{}
	var lineageNS time.Duration
	for round := 0; round < analyticProbeRounds; round++ {
		for _, st := range stmts {
			t0 := time.Now()
			if _, err := sess.Exec(st.sql, engine.ExecOptions{}); err != nil {
				rep.mismatch("engine probe %s: %v", st.id, err)
				return
			}
			d := time.Since(t0)
			execNS += d
			if st.provenance {
				lineageNS += d - plainNS[st.id]
			} else {
				plainNS[st.id] = d
			}
		}
	}
	b := readCounters()
	rep.setEngineProbe(a, b, execNS, analyticProbeRounds*len(stmts), lineageNS, analyticProbeRounds*len(plainNS))
}
