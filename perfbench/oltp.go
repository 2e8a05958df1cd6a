package main

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"ldv/internal/client"
	"ldv/internal/engine"
	"ldv/internal/osim"
	"ldv/internal/server"
	"ldv/internal/sqlval"
	"ldv/internal/tpch"
)

// The oltp workload: two closed-loop sessions on TPC-H SF 0.02 (30k orders,
// about 120k lineitem), prepared statements over a hash index on
// o_orderkey and an ordered index on l_orderkey. The mix is 80% point
// reads of a random order (op1), 10% range reads of lineitem over 8
// consecutive order keys (op2) and 10% write transactions (op3: BEGIN,
// insert a new order, update an order's comment, COMMIT). The WAL is on,
// over an in-memory osim.FS with group commit and no simulated sync
// latency. Each session updates only orders of its own key parity and
// inserts only keys of its own, so no write-write conflict can occur.
const (
	oltpSF       = 0.02
	oltpSessions = 2
	oltpSetups   = 3
	oltpWarmup   = 1000 // unmeasured operations per session before measuring
	oltpDir      = "/data"
	// oltpOpsPerSecond sizes the fixed work of a run: seconds × this many
	// operations, which takes about --seconds on a 2-core machine.
	oltpOpsPerSecond = 20000
	oltpRangeWidth   = 8
	oltpTailPct      = 99.9 // over all operations
	oltpClassTailPct = 99   // per class: write transactions are a tenth of the mix
	oltpProbeOps     = 4000
)

var oltpSQL = struct{ point, rng, ins, upd, begin, commit string }{
	point:  "SELECT o_orderkey, o_custkey, o_totalprice, o_comment FROM orders WHERE o_orderkey = ?",
	rng:    "SELECT l_orderkey, l_linenumber, l_quantity FROM lineitem WHERE l_orderkey BETWEEN ? AND ?",
	ins:    "INSERT INTO orders VALUES (?, ?, 'O', ?, DATE '1998-08-02', '3-MEDIUM', 'Clerk#000000001', ?)",
	upd:    "UPDATE orders SET o_comment = ? WHERE o_orderkey = ?",
	begin:  "BEGIN",
	commit: "COMMIT",
}

type oltpEnv struct {
	db        *engine.DB
	fs        *osim.FS
	srv       *server.Server
	orders    int
	customers int
	lines     []int // lineitem rows per order key
}

// setupOLTP is the timed set-up: TPC-H load, index build, checkpoint, WAL
// and server start.
func setupOLTP(seed uint64) (*oltpEnv, error) {
	cfg := tpch.Config{SF: oltpSF, Seed: seed}
	db := engine.NewDB(nil)
	if _, err := tpch.Load(db, cfg); err != nil {
		return nil, err
	}
	for _, ddl := range []string{
		"CREATE INDEX orders_key ON orders (o_orderkey) USING hash",
		"CREATE INDEX lineitem_key ON lineitem (l_orderkey) USING ordered",
	} {
		if _, err := db.Exec(ddl, engine.ExecOptions{}); err != nil {
			return nil, fmt.Errorf("%s: %w", ddl, err)
		}
	}
	fs := osim.NewFS()
	if err := db.Checkpoint(fs, oltpDir); err != nil {
		return nil, err
	}
	if err := db.EnableWAL(fs, oltpDir); err != nil {
		return nil, err
	}
	cnt := cfg.Counts()
	return &oltpEnv{db: db, fs: fs, srv: server.New(db, nil), orders: cnt.Orders, customers: cnt.Customer}, nil
}

// countLines records how many lineitem rows each order has, the reference
// every range read is checked against (the workload never writes lineitem).
func (e *oltpEnv) countLines() error {
	_, rows, err := e.db.ScanAll("lineitem")
	if err != nil {
		return err
	}
	e.lines = make([]int, e.orders+1)
	for _, row := range rows {
		e.lines[row[0].Int()]++
	}
	return nil
}

// oltpClient is one session's closed loop and everything it observed.
type oltpClient struct {
	sid  int
	env  *oltpEnv
	s    *session
	rng  *rand.Rand
	stmt struct{ point, rng, ins, upd, begin, commit *client.Stmt }

	rec      *recorder
	t        opTotals // this phase's observations
	wire0    int64    // session bytes and frames when the phase began
	frames0  int64
	writes   int
	inserted []int64          // acknowledged inserts
	updated  map[int64]string // last acknowledged comment per updated key
	bad      []string
}

func newOLTPClient(env *oltpEnv, d *pipeDialer, sid int, seed uint64) (*oltpClient, error) {
	s, err := d.dial(fmt.Sprintf("oltp:%d", sid))
	if err != nil {
		return nil, err
	}
	c := &oltpClient{sid: sid, env: env, s: s, rng: rand.New(rand.NewSource(int64(seed)*31 + int64(sid))), updated: map[int64]string{}}
	for _, p := range []struct {
		dst **client.Stmt
		sql string
	}{
		{&c.stmt.point, oltpSQL.point}, {&c.stmt.rng, oltpSQL.rng}, {&c.stmt.ins, oltpSQL.ins},
		{&c.stmt.upd, oltpSQL.upd}, {&c.stmt.begin, oltpSQL.begin}, {&c.stmt.commit, oltpSQL.commit},
	} {
		if *p.dst, err = s.conn.Prepare(p.sql); err != nil {
			_ = s.conn.Close()
			return nil, fmt.Errorf("prepare %q: %w", p.sql, err)
		}
	}
	return c, nil
}

// reattach moves the client's state onto a fresh session (the traced half
// of a traced run uses residence-timing pipes).
func (c *oltpClient) reattach(d *pipeDialer) error {
	fresh, err := newOLTPClient(c.env, d, c.sid, 0)
	if err != nil {
		return err
	}
	c.s, c.stmt = fresh.s, fresh.stmt
	return nil
}

func (c *oltpClient) resetStats(rec *recorder) {
	c.rec = rec
	c.t = opTotals{}
	c.wire0 = c.s.st.in.bytes + c.s.st.out.bytes
	c.frames0 = c.s.st.in.frames + c.s.st.out.frames
}

func (c *oltpClient) call(parent int, st *client.Stmt, args ...any) (*engine.Result, error) {
	id := c.rec.begin("client.call", parent)
	r0 := c.s.st.residenceNS.Load()
	t0 := now()
	res, err := st.Exec(args...)
	t1 := now()
	c.rec.end(id)
	c.t.callNS += t1 - t0
	if c.rec != nil {
		c.t.residNS += c.s.st.residenceNS.Load() - r0
		c.rec.add("server.residence", id, c.s.st.residentStart.Load(), c.s.st.residentEnd.Load())
	}
	return res, err
}

func (c *oltpClient) fail(err error) {
	c.t.failed++
	if strings.Contains(err.Error(), "conflict") {
		c.t.conflicts++
	}
	if c.s.conn.InTxn() {
		if _, rerr := c.s.conn.Exec("ROLLBACK"); rerr != nil {
			c.bad = append(c.bad, fmt.Sprintf("rollback after %v: %v", err, rerr))
		}
	}
}

// op runs one operation of the mix, timing it from the client's view and
// checking its output after the clock stops.
func (c *oltpClient) op() {
	n := c.env.orders
	var class int
	var key int
	var res *engine.Result
	var err error
	var write struct {
		ins, upd int64
		comment  string
		insRes   *engine.Result
	}
	root := c.rec.begin("op", -1)
	in0 := c.s.st.in.bytes
	t0 := time.Now()
	switch p := c.rng.Intn(10); {
	case p < 8:
		key = 1 + c.rng.Intn(n)
		res, err = c.call(root, c.stmt.point, key)
	case p == 8:
		class = 1
		key = 1 + c.rng.Intn(n-oltpRangeWidth+1)
		res, err = c.call(root, c.stmt.rng, key, key+oltpRangeWidth-1)
	default:
		class = 2
		c.writes++
		write.ins = int64(c.env.orders + 1_000_000 + oltpSessions*c.writes + c.sid)
		write.upd = int64(2*c.rng.Intn(n/2) + 1 + c.sid)
		write.comment = fmt.Sprintf("oltp s%d w%d", c.sid, c.writes)
		if _, err = c.call(root, c.stmt.begin); err == nil {
			if write.insRes, err = c.call(root, c.stmt.ins, write.ins, 1+c.rng.Intn(c.env.customers), 1000.5, write.comment); err == nil {
				if res, err = c.call(root, c.stmt.upd, write.comment, write.upd); err == nil {
					_, err = c.call(root, c.stmt.commit)
				}
			}
		}
	}
	d := time.Since(t0)
	c.rec.end(root)
	c.t.ops++
	if err != nil {
		c.fail(err)
		return
	}
	c.t.classes[class].add(d)
	c.t.all.add(d)
	c.t.respBytes[class] += c.s.st.in.bytes - in0

	switch class {
	case 0:
		if len(res.Rows) != 1 || res.Rows[0][0].Int() != int64(key) {
			c.bad = append(c.bad, fmt.Sprintf("point read of order %d returned %d rows", key, len(res.Rows)))
		}
	case 1:
		want := 0
		for k := key; k < key+oltpRangeWidth; k++ {
			want += c.env.lines[k]
		}
		ok := len(res.Rows) == want
		for _, row := range res.Rows {
			if k := row[0].Int(); k < int64(key) || k >= int64(key+oltpRangeWidth) {
				ok = false
			}
		}
		if !ok {
			c.bad = append(c.bad, fmt.Sprintf("range read of orders %d..%d returned %d rows, want %d", key, key+oltpRangeWidth-1, len(res.Rows), want))
		}
	case 2:
		if write.insRes.RowsAffected != 1 || res.RowsAffected != 1 {
			c.bad = append(c.bad, fmt.Sprintf("write txn: insert affected %d rows, update %d", write.insRes.RowsAffected, res.RowsAffected))
		}
		c.inserted = append(c.inserted, write.ins)
		c.updated[write.upd] = write.comment
	}
}

// runOLTPPhase runs ops operations split across the clients, each a closed
// loop on its own goroutine, and returns the wall time.
func runOLTPPhase(clients []*oltpClient, ops int) time.Duration {
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, c := range clients {
		wg.Add(1)
		go func(c *oltpClient) {
			defer wg.Done()
			for i := 0; i < ops/len(clients); i++ {
				c.op()
			}
		}(c)
	}
	wg.Wait()
	return time.Since(t0)
}

func runOLTP(cfg config) (*report, error) {
	rep := newReport("oltp")
	var env *oltpEnv
	var clients []*oltpClient
	var d *pipeDialer
	var setups []float64
	for i := 0; i < oltpSetups; i++ {
		if d != nil {
			d.closeAll(sessionsOf(clients))
		}
		env, clients, d = nil, nil, nil
		t0 := time.Now()
		var err error
		if env, err = setupOLTP(cfg.seed); err != nil {
			return nil, err
		}
		d = &pipeDialer{srv: env.srv}
		for sid := 0; sid < oltpSessions; sid++ {
			c, err := newOLTPClient(env, d, sid, cfg.seed)
			if err != nil {
				d.closeAll(sessionsOf(clients))
				return nil, err
			}
			clients = append(clients, c)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.set("setup_s", median(setups))
	if err := env.countLines(); err != nil {
		d.closeAll(sessionsOf(clients))
		return nil, err
	}

	runOLTPPhase(clients, oltpSessions*oltpWarmup)
	total := oltpOpsPerSecond * cfg.seconds / (segments * oltpSessions) * segments * oltpSessions
	untraced := total
	if cfg.trace {
		untraced = total / 2
	}
	for _, c := range clients {
		c.resetStats(nil)
	}
	// Throughput and the tail are medians over segments, so one burst of
	// interference moves them less.
	var rates, tails []float64
	mark := make([]int, len(clients))
	for i := 0; i < segments; i++ {
		d := runOLTPPhase(clients, untraced/segments)
		rates = append(rates, float64(untraced/segments)/d.Seconds())
		var seg latencies
		for j, c := range clients {
			seg = append(seg, c.t.all[mark[j]:]...)
			mark[j] = len(c.t.all)
		}
		tails = append(tails, rep.tail("req_tail_us segment", seg, oltpTailPct))
	}
	rep.noteRates(rates)
	plain := mergeOLTP(clients)
	if !cfg.trace {
		rep.set("ops_per_s", median(rates))
		rep.set("heap_live_mb", liveHeapMB())
		rep.set("req_p50_us", plain.all.p50())
		rep.set("req_tail_us", median(tails))
		for k := 0; k < 3; k++ {
			rep.set(fmt.Sprintf("op%d_p50_us", k+1), plain.classes[k].p50())
		}
		rep.set("op1_kb", ratio(float64(plain.respBytes[0]), float64(len(plain.classes[0])))/1024)
		rep.set("op2_kb", ratio(float64(plain.respBytes[1]), float64(len(plain.classes[1])))/1024)
		rep.attempted, rep.failed = plain.ops, plain.failed
	} else {
		// The traced half runs on fresh sessions whose server ends time
		// residence.
		d.closeAll(sessionsOf(clients))
		d = &pipeDialer{srv: env.srv, timed: true}
		recs := make([]*recorder, len(clients))
		for i, c := range clients {
			if err := c.reattach(d); err != nil {
				d.closeAll(sessionsOf(clients[:i]))
				return nil, err
			}
			recs[i] = &recorder{}
			c.resetStats(recs[i])
		}
		a := readCounters()
		runOLTPPhase(clients, total-untraced)
		b := readCounters()
		tr := mergeOLTP(clients)
		rep.attempted, rep.failed = plain.ops+tr.ops, plain.failed+tr.failed
		rep.setOpLayers(tr, a, b)
		rep.set("engine.conflict_frac", ratio(float64(plain.conflicts+tr.conflicts), float64(rep.attempted)))
		rep.set("trace.overhead_frac", ratio(tr.all.p50(), plain.all.p50())-1)
		for k := 0; k < 3; k++ {
			rep.set(fmt.Sprintf("client.op%d_tail_us", k+1), rep.tail(fmt.Sprintf("client.op%d_tail_us", k+1), tr.classes[k], oltpClassTailPct))
		}
		spans := selfTimes(recs...)
		rep.setSpanSelf(spans)
		rep.noteSpans(spans)
	}
	for _, c := range clients {
		for _, b := range c.bad {
			rep.mismatch("%s", b)
		}
	}
	d.closeAll(sessionsOf(clients))
	env.checkRecovery(clients, rep)
	if cfg.trace {
		env.probe(rep, cfg.seed)
		rep.setRequestLedger()
	}
	return rep, nil
}

func sessionsOf(clients []*oltpClient) []*session {
	out := make([]*session, len(clients))
	for i, c := range clients {
		out[i] = c.s
	}
	return out
}

// mergeOLTP merges the clients' observations of one phase.
func mergeOLTP(clients []*oltpClient) opTotals {
	var t opTotals
	for _, c := range clients {
		for k := range c.t.classes {
			t.classes[k] = append(t.classes[k], c.t.classes[k]...)
			t.respBytes[k] += c.t.respBytes[k]
		}
		t.all = append(t.all, c.t.all...)
		t.callNS += c.t.callNS
		t.residNS += c.t.residNS
		t.wireBytes += c.s.st.in.bytes + c.s.st.out.bytes - c.wire0
		t.frames += c.s.st.in.frames + c.s.st.out.frames - c.frames0
		t.ops += c.t.ops
		t.failed += c.t.failed
		t.conflicts += c.t.conflicts
	}
	return t
}

// checkRecovery recovers a fresh database from the checkpoint and the
// in-memory WAL and checks that every acknowledged insert and update is
// there (acknowledged ⊆ recovered).
func (e *oltpEnv) checkRecovery(clients []*oltpClient, rep *report) {
	db := engine.NewDB(nil)
	if _, err := db.Recover(e.fs, oltpDir); err != nil {
		rep.mismatch("recovery: %v", err)
		return
	}
	_, rows, err := db.ScanAll("orders")
	if err != nil {
		rep.mismatch("recovery scan: %v", err)
		return
	}
	comments := make(map[int64]string, len(rows))
	for _, row := range rows {
		comments[row[0].Int()] = row[7].Str()
	}
	for _, c := range clients {
		for _, k := range c.inserted {
			if _, ok := comments[k]; !ok {
				rep.mismatch("acknowledged insert of order %d is missing after recovery", k)
			}
		}
		for k, want := range c.updated {
			if got := comments[k]; got != want {
				rep.mismatch("acknowledged update of order %d: recovered comment %q, want %q", k, got, want)
			}
		}
	}
}

// probe sends a sample of the mix straight into sqlparse, the planner (via
// EXPLAIN) and the engine (Session.ExecPrepared, no wire).
func (e *oltpEnv) probe(rep *report, seed uint64) {
	rng := rand.New(rand.NewSource(int64(seed) + 7))
	texts := []string{oltpSQL.point, oltpSQL.rng, oltpSQL.ins, oltpSQL.upd, oltpSQL.begin, oltpSQL.commit}
	iv := func(v int) sqlval.Value { return sqlval.NewInt(int64(v)) }
	point := probeStmt{sql: oltpSQL.point, params: []sqlval.Value{iv(1)}}
	rng8 := probeStmt{sql: oltpSQL.rng, params: []sqlval.Value{iv(1), iv(oltpRangeWidth)}}
	rep.probeParsePlan(e.db, texts, []probeStmt{point, rng8})

	prep := map[string]*engine.PreparedStmt{}
	for _, t := range texts {
		ps, err := engine.PrepareStatement(t)
		if err != nil {
			rep.mismatch("probe prepare %q: %v", t, err)
			return
		}
		prep[t] = ps
	}
	sess := e.db.NewSession()
	defer sess.Close()
	exec := func(sql string, lineage bool, args ...sqlval.Value) (*engine.Result, time.Duration, error) {
		t0 := time.Now()
		res, err := sess.ExecPrepared(prep[sql], args, engine.ExecOptions{WithLineage: lineage})
		return res, time.Since(t0), err
	}
	a := readCounters()
	var execNS time.Duration
	for i := 0; i < oltpProbeOps; i++ {
		k := 1 + rng.Intn(e.orders-oltpRangeWidth)
		var d time.Duration
		var err error
		switch p := rng.Intn(10); {
		case p < 8:
			_, d, err = exec(oltpSQL.point, false, iv(k))
		case p == 8:
			_, d, err = exec(oltpSQL.rng, false, iv(k), iv(k+oltpRangeWidth-1))
		default:
			for _, st := range []struct {
				sql  string
				args []sqlval.Value
			}{
				{oltpSQL.begin, nil},
				{oltpSQL.ins, []sqlval.Value{iv(e.orders + 5_000_000 + i), iv(1), sqlval.NewFloat(1000.5), sqlval.NewString("probe")}},
				{oltpSQL.upd, []sqlval.Value{sqlval.NewString("probe"), iv(k)}},
				{oltpSQL.commit, nil},
			} {
				var ds time.Duration
				if _, ds, err = exec(st.sql, false, st.args...); err != nil {
					break
				}
				d += ds
			}
		}
		if err != nil {
			rep.mismatch("engine probe: %v", err)
			return
		}
		execNS += d
	}
	b := readCounters()

	// Pairs alternate which variant runs first, so the second run of a key
	// finding it cached favours neither side.
	var lineageNS time.Duration
	for i := 0; i < oltpProbeOps/8; i++ {
		k := iv(1 + rng.Intn(e.orders))
		var d [2]time.Duration
		for j := 0; j < 2; j++ {
			lineage := (i+j)%2 == 1
			_, dl, err := exec(oltpSQL.point, lineage, k)
			if err != nil {
				rep.mismatch("lineage probe: %v", err)
				return
			}
			d[boolIndex(lineage)] = dl
		}
		lineageNS += d[1] - d[0]
	}
	rep.setEngineProbe(a, b, execNS, oltpProbeOps, lineageNS, oltpProbeOps/8)
}

func boolIndex(b bool) int {
	if b {
		return 1
	}
	return 0
}
