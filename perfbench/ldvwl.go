package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"ldv/internal/bench"
	"ldv/internal/client"
	"ldv/internal/deps"
	"ldv/internal/engine"
	"ldv/internal/ldv"
	"ldv/internal/obs"
	"ldv/internal/osim"
	"ldv/internal/pack"
	"ldv/internal/tpch"
)

// The ldv workload: the paper's §IX-A three-step application
// (bench.DefaultConfig: 200 inserts, 10 selects of Q1-1, 50 updates, SF
// 0.005). Each repetition audits and packages it server-included (op1),
// audits and packages it server-excluded (op2), then replays the
// server-included package (op3). These are the paper's own end-to-end
// numbers; the server-excluded audit collects no lineage, so it is the
// bypass side of any lineage change. Requests are the application's SQL
// statements, timed as the application sees them.
const (
	ldvSetups = 5
	// ldvSecondsPerRep sizes the fixed work of a run: one repetition per
	// this many seconds of --seconds, about its duration on a 2-core
	// machine.
	ldvSecondsPerRep = 2
	ldvMinReps       = 4
	// ldvReplays is how many times each repetition replays its package:
	// a replay takes tens of milliseconds, so one per repetition would leave
	// op3's median resting on a handful of samples.
	ldvReplays     = 5
	ldvOpsPerRep   = 2 + ldvReplays
	ldvTailPct     = 99
	ldvAppBinary   = "/usr/bin/tpch-app"
	ldvTemplateDir = "/template"
)

// appRun is what one execution of the application observed: the latency
// of each statement and a digest of each query result (its outputs).
type appRun struct {
	lat     latencies
	outputs []uint64
}

// timedExec is the application's database handle: it times each
// statement and records query results.
type timedExec struct {
	conn *client.Conn
	run  *appRun
}

func (e timedExec) Query(sql string) (*engine.Result, error) {
	t0 := time.Now()
	res, err := e.conn.Query(sql)
	e.run.lat.add(time.Since(t0))
	if err == nil && len(res.Columns) > 0 {
		e.run.outputs = append(e.run.outputs, rowDigest(res.Rows))
	}
	return res, err
}

func ldvApp(w tpch.Workload, run *appRun) ldv.App {
	return ldv.App{
		Binary: ldvAppBinary,
		Libs:   ldv.ClientLibs(),
		Size:   180 << 10,
		Prog: func(p *osim.Process) error {
			conn, err := ldv.Dial(p)
			if err != nil {
				return err
			}
			defer conn.Close()
			return w.Run(timedExec{conn: conn, run: run})
		},
	}
}

// ldvTemplate is the timed set-up: the TPC-H data loaded once and
// checkpointed into data files that every repetition's machine starts from.
// bench.NewMachine keeps such a template cached per configuration, which
// would hide this cost from setup_s, so the benchmark builds its own.
func ldvTemplate(cfg tpch.Config) (map[string][]byte, error) {
	db := engine.NewDB(nil)
	if _, err := tpch.Load(db, cfg); err != nil {
		return nil, err
	}
	fs := osim.NewFS()
	if err := db.Checkpoint(fs, ldvTemplateDir); err != nil {
		return nil, err
	}
	names, err := fs.ReadDir(ldvTemplateDir)
	if err != nil {
		return nil, err
	}
	files := map[string][]byte{}
	for _, n := range names {
		if files[n], err = fs.ReadFile(ldvTemplateDir + "/" + n); err != nil {
			return nil, err
		}
	}
	return files, nil
}

// newMachine boots a machine whose database and data directory hold the
// template.
func newMachine(files map[string][]byte) (*ldv.Machine, error) {
	m, err := ldv.NewMachine()
	if err != nil {
		return nil, err
	}
	fs := m.Kernel.FS()
	for name, data := range files {
		if err := fs.WriteFile(m.DataDir+"/"+name, data); err != nil {
			return nil, err
		}
	}
	if err := m.DB.LoadDir(fs, m.DataDir); err != nil {
		return nil, err
	}
	return m, nil
}

// ldvRep is one repetition's measurements.
type ldvRep struct {
	ops         [3]latencies
	sizeSI      int64
	sizeSE      int64
	traceNodes  int
	relevant    int
	pkgSI       *pack.Archive
	audSI       *ldv.Auditor
	runs        []*appRun
	monitorNS   float64 // auditor trace + dedup + spool time in the SI audit
	fetched     float64
	deduped     float64
	compressIn  float64
	compressOut float64
}

type ldvEnv struct {
	files map[string][]byte
	w     tpch.Workload
}

// timed runs f under a span named name.
func timed(rec *recorder, name string, parent int, f func() error) error {
	id := rec.begin(name, parent)
	err := f()
	rec.end(id)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// rep runs one repetition: server-included audit and package, server-
// excluded audit and package, server-included replay.
func (e *ldvEnv) rep(rec *recorder, rp *report) (*ldvRep, error) {
	out := &ldvRep{}
	si, se := &appRun{}, &appRun{}
	out.runs = []*appRun{si, se}

	m1, err := newMachine(e.files)
	if err != nil {
		return nil, err
	}
	apps := []ldv.App{ldvApp(e.w, si)}
	a := readCounters()
	root := rec.begin("ldv.audit_si", -1)
	t0 := time.Now()
	err = timed(rec, "ldv.audit_run", root, func() (err error) {
		out.audSI, err = ldv.Audit(m1, apps)
		return err
	})
	if err == nil {
		err = timed(rec, "ldv.build_si", root, func() (err error) {
			out.pkgSI, err = ldv.BuildServerIncluded(m1, out.audSI, apps)
			return err
		})
	}
	out.ops[0].add(time.Since(t0))
	rec.end(root)
	if err != nil {
		return nil, err
	}
	b := readCounters()
	for _, h := range []string{obs.MetricTraceNS, obs.MetricDedupNS, obs.MetricSpoolNS} {
		_, sum := histDelta(a, b, h)
		out.monitorNS += sum
	}
	out.fetched, out.deduped = delta(a, b, "auditor.tuples.fetched"), delta(a, b, "auditor.tuples.deduped")
	out.compressIn, out.compressOut = delta(a, b, "pack.compress.in_bytes"), delta(a, b, "pack.compress.out_bytes")
	out.sizeSI = out.pkgSI.TotalSize()
	out.traceNodes = out.audSI.Trace().NodeCount()
	out.relevant = out.audSI.RelevantTupleCount()

	m2, err := newMachine(e.files)
	if err != nil {
		return nil, err
	}
	apps2 := []ldv.App{ldvApp(e.w, se)}
	var pkgSE *pack.Archive
	root = rec.begin("ldv.audit_se", -1)
	t0 = time.Now()
	var aud *ldv.Auditor
	err = timed(rec, "ldv.audit_run_se", root, func() (err error) {
		aud, err = ldv.AuditWithOptions(m2, apps2, ldv.AuditOptions{CollectLineage: false})
		return err
	})
	if err == nil {
		err = timed(rec, "ldv.build_se", root, func() (err error) {
			pkgSE, err = ldv.BuildServerExcluded(m2, aud, apps2)
			return err
		})
	}
	out.ops[1].add(time.Since(t0))
	rec.end(root)
	if err != nil {
		return nil, err
	}
	out.sizeSE = pkgSE.TotalSize()

	for i := 0; i < ldvReplays; i++ {
		replay := &appRun{}
		app := ldvApp(e.w, replay)
		root = rec.begin("ldv.replay_si", -1)
		t0 = time.Now()
		var setup *ldv.ReplaySetup
		err = timed(rec, "ldv.prepare_replay", root, func() (err error) {
			setup, err = ldv.PrepareReplay(out.pkgSI, map[string]osim.Program{ldvAppBinary: app.Prog})
			return err
		})
		if err == nil {
			err = timed(rec, "ldv.replay_run", root, setup.Run)
			ldv.ClearRuntime(setup.Machine.Kernel)
		}
		out.ops[2].add(time.Since(t0))
		rec.end(root)
		if err != nil {
			return nil, err
		}
		if !slices.Equal(replay.outputs, si.outputs) {
			rp.mismatch("server-included replay outputs differ from the audited run's (%d vs %d results)", len(replay.outputs), len(si.outputs))
		}
		if i == 0 {
			out.runs = append(out.runs, replay)
		}
	}
	if !slices.Equal(se.outputs, si.outputs) {
		rp.mismatch("server-excluded audit outputs differ from the server-included audit's")
	}
	if len(si.outputs) != e.w.NumSelects {
		rp.mismatch("audited run produced %d query results, want %d", len(si.outputs), e.w.NumSelects)
	}
	return out, nil
}

func runLDV(cfg config) (*report, error) {
	rep := newReport("ldv")
	bc := bench.DefaultConfig()
	tcfg := tpch.Config{SF: bc.SF, Seed: cfg.seed}
	q, err := tpch.QueryByID(tcfg, "Q1-1")
	if err != nil {
		return nil, err
	}
	w := tpch.NewWorkload(tcfg, q)
	w.NumInserts, w.NumSelects, w.NumUpdates = bc.Inserts, bc.Selects, bc.Updates

	var files map[string][]byte
	var setups []float64
	for i := 0; i < ldvSetups; i++ {
		t0 := time.Now()
		if files, err = ldvTemplate(tcfg); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.set("setup_s", median(setups))
	env := &ldvEnv{files: files, w: w}
	if _, err := env.rep(nil, rep); err != nil { // warm-up
		return nil, err
	}

	reps := cfg.seconds / ldvSecondsPerRep
	if reps < ldvMinReps {
		reps = ldvMinReps
	}
	untraced := reps
	if cfg.trace {
		untraced = reps / 2
	}
	var plain []*ldvRep
	var rates []float64
	for i := 0; i < untraced; i++ {
		t0 := time.Now()
		r, err := env.rep(nil, rep)
		if err != nil {
			return nil, err
		}
		rates = append(rates, ldvOpsPerRep/time.Since(t0).Seconds())
		r.pkgSI, r.audSI = nil, nil
		plain = append(plain, r)
	}
	rep.attempted = ldvOpsPerRep * untraced
	for _, r := range plain {
		rep.note("repetition: op1 %.0f us, op2 %.0f us, op3 median %.0f us", r.ops[0].p50(), r.ops[1].p50(), r.ops[2].p50())
	}
	if !cfg.trace {
		rep.set("ops_per_s", median(rates))
		rep.set("heap_live_mb", liveHeapMB())
		runtime.KeepAlive(env)
		var all latencies
		for _, r := range plain {
			for _, run := range r.runs {
				all = append(all, run.lat...)
			}
		}
		rep.set("req_p50_us", all.p50())
		rep.set("req_tail_us", rep.tail("req_tail_us", all, ldvTailPct))
		for k := 0; k < 3; k++ {
			rep.set(fmt.Sprintf("op%d_p50_us", k+1), opMedianUS(plain, k))
		}
		rep.set("op1_kb", medianOf(plain, func(r *ldvRep) float64 { return float64(r.sizeSI) / 1024 }))
		rep.set("op2_kb", medianOf(plain, func(r *ldvRep) float64 { return float64(r.sizeSE) / 1024 }))
		return rep, nil
	}
	return rep, env.traced(rep, plain, reps-untraced)
}

// opMedianUS is the median of op class k over all repetitions.
func opMedianUS(reps []*ldvRep, k int) float64 {
	var all latencies
	for _, r := range reps {
		all = append(all, r.ops[k]...)
	}
	return all.p50()
}

func medianOf(reps []*ldvRep, f func(*ldvRep) float64) float64 {
	v := make([]float64, len(reps))
	for i, r := range reps {
		v[i] = f(r)
	}
	return median(v)
}

// traced runs n traced repetitions and, per repetition, the layer calls the
// pipeline makes internally: a plain ldv.Run of the same application,
// dependency inference over the audit trace, and the package's
// serialization both ways.
func (e *ldvEnv) traced(rep *report, plain []*ldvRep, n int) error {
	rec := &recorder{}
	var reps []*ldvRep
	a := readCounters()
	for i := 0; i < n; i++ {
		r, err := e.rep(rec, rep)
		if err != nil {
			return err
		}
		reps = append(reps, r)

		m, err := newMachine(e.files)
		if err != nil {
			return err
		}
		nat := &appRun{}
		if err := timed(rec, "ldv.native_run", -1, func() error { return ldv.Run(m, []ldv.App{ldvApp(e.w, nat)}) }); err != nil {
			return err
		}
		if !slices.Equal(nat.outputs, r.runs[0].outputs) {
			rep.mismatch("native run outputs differ from the audited run's")
		}
		if i == 0 {
			// Inference over the whole trace takes seconds, so one per run.
			_ = timed(rec, "deps.infer", -1, func() error { // inference cannot fail
				deps.NewDefaultInferencer(r.audSI.Trace()).All()
				return nil
			})
		}
		var data []byte
		_ = timed(rec, "pack.marshal", -1, func() error { data = r.pkgSI.Marshal(); return nil }) // cannot fail
		if err := timed(rec, "pack.unmarshal", -1, func() error { _, err := pack.Unmarshal(data); return err }); err != nil {
			return err
		}
		r.pkgSI, r.audSI = nil, nil
	}
	b := readCounters()
	rep.attempted += ldvOpsPerRep * n

	// Layer times are means over the traced repetitions, so that the
	// ledger's parts add up to its total.
	spans := selfTimes(rec)
	mean := func(name string) float64 {
		return ratio(float64(spans[name].totalNS), float64(spans[name].count)) / 1e9
	}
	nativeS, auditRun, buildSI := mean("ldv.native_run"), mean("ldv.audit_run"), mean("ldv.build_si")
	rep.set("ldv.native_run_s", nativeS)
	rep.set("ldv.audit_run_s", auditRun)
	rep.set("ldv.audit_overhead_frac", ratio(auditRun-nativeS, nativeS))
	rep.set("ldv.build_si_s", buildSI)
	rep.set("ldv.build_se_s", mean("ldv.build_se"))
	rep.set("ldv.prepare_replay_s", mean("ldv.prepare_replay"))
	rep.set("ldv.replay_run_s", mean("ldv.replay_run"))
	rep.set("deps.infer_ms", mean("deps.infer")*1e3)
	rep.set("pack.marshal_ms", mean("pack.marshal")*1e3)
	rep.set("pack.unmarshal_ms", mean("pack.unmarshal")*1e3)
	rep.set("prov.trace_nodes", medianOf(reps, func(r *ldvRep) float64 { return float64(r.traceNodes) }))
	rep.set("ldv.relevant_tuples", medianOf(reps, func(r *ldvRep) float64 { return float64(r.relevant) }))
	rep.set("ldv.dedup_ratio", medianOf(reps, func(r *ldvRep) float64 { return ratio(r.deduped, r.fetched) }))
	rep.set("pack.compress_ratio", medianOf(reps, func(r *ldvRep) float64 { return ratio(r.compressOut, r.compressIn) }))

	// The audit ledger: op1 = native run + auditor monitor + other audit
	// overhead + build + residual, each also given as a share of op1.
	auditSI := mean("ldv.audit_si")
	var monitor float64
	for _, r := range reps {
		monitor += r.monitorNS / 1e9 / float64(len(reps))
	}
	other := auditRun - nativeS - monitor
	residual := auditSI - auditRun - buildSI
	rep.set("ledger.native_frac", ratio(nativeS, auditSI))
	rep.set("ledger.monitor_frac", ratio(monitor, auditSI))
	rep.set("ledger.audit_other_frac", ratio(other, auditSI))
	rep.set("ledger.build_frac", ratio(buildSI, auditSI))
	rep.set("ledger.residual_us", residual*1e6)
	rep.set("ledger.residual_frac", ratio(residual, auditSI))
	rep.note("ledger: op1 %.4f s = native run %.4f + auditor monitor %.4f + other audit overhead %.4f + build %.4f + residual %.6f",
		auditSI, nativeS, monitor, other, buildSI, residual)

	var stmts latencies
	for _, r := range reps {
		stmts = append(stmts, r.runs[0].lat...)
	}
	ops := ldvOpsPerRep * n
	rep.set("client.call_us", stmts.meanUS())
	rep.set("client.op1_tail_us", rep.tail("client.op1_tail_us", stmts, ldvTailPct))
	rep.set("wire.bytes_per_op", ratio(delta(a, b, "wire.out.bytes"), float64(ops)))
	rep.set("wire.frames_per_op", ratio(delta(a, b, "wire.out.msgs"), float64(ops)))
	rep.setEngineCounters(a, b, ops)
	rep.setRuntimeLayer(a, b, ops)
	rep.set("engine.conflict_frac", 0)
	rep.set("trace.overhead_frac", ratio(opMedianUS(reps, 0), opMedianUS(plain, 0))-1)
	rep.set("self.op_us", meanSelf(spans, "ldv.audit_si", "ldv.audit_se", "ldv.replay_si"))
	rep.noteSpans(spans)
	return e.probe(rep)
}

// meanSelf is the mean self time over the named spans, in microseconds.
func meanSelf(spans map[string]spanTotals, names ...string) float64 {
	var self int64
	var count int
	for _, n := range names {
		self += spans[n].selfNS
		count += spans[n].count
	}
	return ratio(float64(self), float64(count)) / 1e3
}

// probe runs the application's statements straight into sqlparse, the
// planner and the engine, on a database loaded from the template.
func (e *ldvEnv) probe(rep *report) error {
	db := engine.NewDB(nil)
	fs := osim.NewFS()
	for name, data := range e.files {
		if err := fs.WriteFile(ldvTemplateDir+"/"+name, data); err != nil {
			return err
		}
	}
	if err := db.LoadDir(fs, ldvTemplateDir); err != nil {
		return err
	}
	rec := &recordingExec{db: db, sess: db.NewSession()}
	defer rec.sess.Close()
	a := readCounters()
	if err := e.w.Run(rec); err != nil {
		return fmt.Errorf("engine probe: %w", err)
	}
	b := readCounters()

	texts := []string{rec.texts[0], e.w.Query.SQL, rec.texts[len(rec.texts)-1]}
	rep.probeParsePlan(db, texts, []probeStmt{{sql: texts[0]}, {sql: texts[1]}, {sql: texts[2]}})

	var lineageNS time.Duration
	for i := 0; i < e.w.NumSelects; i++ {
		t0 := time.Now()
		if _, err := rec.sess.Exec(e.w.Query.SQL, engine.ExecOptions{}); err != nil {
			return err
		}
		plain := time.Since(t0)
		t0 = time.Now()
		if _, err := rec.sess.Exec(e.w.Query.SQL, engine.ExecOptions{WithLineage: true}); err != nil {
			return err
		}
		lineageNS += time.Since(t0) - plain
	}
	rep.setEngineProbe(a, b, rec.execNS, len(rec.texts), lineageNS, e.w.NumSelects)
	return nil
}

// recordingExec runs the application's statements on an engine session,
// timing each and keeping its text.
type recordingExec struct {
	db     *engine.DB
	sess   *engine.Session
	texts  []string
	execNS time.Duration
}

func (r *recordingExec) Query(sql string) (*engine.Result, error) {
	t0 := time.Now()
	res, err := r.sess.Exec(sql, engine.ExecOptions{})
	r.execNS += time.Since(t0)
	r.texts = append(r.texts, sql)
	return res, err
}
