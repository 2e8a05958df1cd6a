package engine

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"ldv/internal/plan"
	"ldv/internal/sqlparse"
	"ldv/internal/sqlval"
)

// relation is an intermediate executor result: a tuple layout plus the
// materialized tuples.
type relation struct {
	env    env
	tuples []tuple
}

// execSelect plans and runs a SELECT, filling res.
func (ec *stmtCtx) execSelect(s *sqlparse.Select, opts ExecOptions, res *Result) error {
	withLineage := opts.WithLineage || s.Provenance
	// Resolve uncorrelated subqueries up front; their lineage joins every
	// result row's lineage below. Subqueries run in the outer statement's
	// context: same snapshot, same already-locked table footprint.
	var subState *subqueryState
	if selectHasSubqueries(s) {
		subState = &subqueryState{ec: ec, opts: ExecOptions{Proc: opts.Proc, WithLineage: withLineage}, stmtID: res.StmtID}
		ns, _, err := ec.resolveSelectSubqueries(s, subState)
		if err != nil {
			return err
		}
		s = ns
	}
	sc := &scanCtx{lineage: withLineage, prov: selectNamesProv(s), stmtID: res.StmtID}
	rel, err := ec.runSelect(s, sc)
	if err != nil {
		return err
	}
	var cols []string
	var rows [][]sqlval.Value
	var lineage [][]TupleRef
	if err := ec.ops.execEst("project", "", ec.sel.estProject, func() (int, error) {
		var perr error
		cols, rows, lineage, perr = project(s, rel, withLineage, ec.ops, ec.sel)
		return len(rows), perr
	}); err != nil {
		return err
	}
	res.Columns = cols
	res.Rows = rows
	if withLineage {
		t0 := time.Now()
		defer func() { hLineage.Observe(time.Since(t0)) }()
		if subState != nil && len(subState.refs) > 0 {
			for i := range lineage {
				lineage[i] = mergeLineage(lineage[i], subState.refs)
			}
		}
		res.Lineage = lineage
		// Keep values only for tuple versions that actually appear in some
		// result row's Lineage (the provenance tuples Perm would return).
		used := map[TupleRef]bool{}
		for _, lin := range lineage {
			for _, ref := range lin {
				used[ref] = true
			}
		}
		res.TupleValues = map[TupleRef][]sqlval.Value{}
		for _, src := range sc.sources {
			if used[src.ref] {
				delete(used, src.ref) // a self-join scans a version twice
				res.TupleValues[src.ref] = append([]sqlval.Value(nil), src.row.vals...)
			}
		}
		if subState != nil {
			for ref, vals := range subState.values {
				res.TupleValues[ref] = vals
			}
		}
	}
	return nil
}

// selPlan carries a SELECT's plan tree through execution: the relational
// access subtree the executor walks, plus the planner estimates for the
// projection-side stages (−1 when the plan has no such stage), which
// EXPLAIN ANALYZE reports next to the actual row counts.
type selPlan struct {
	tree                                               *plan.Tree
	access                                             plan.Node
	estAgg, estDistinct, estSort, estLimit, estProject float64
}

// newSelPlan unwraps the projection chain the planner stacked on top of the
// relational subtree (project / limit / sort / distinct / aggregate, in
// that nesting order) and records each stage's estimate.
func newSelPlan(tree *plan.Tree) *selPlan {
	sp := &selPlan{tree: tree, estAgg: -1, estDistinct: -1, estSort: -1, estLimit: -1, estProject: -1}
	n := tree.Root
	if p, ok := n.(*plan.ProjectNode); ok {
		sp.estProject = p.Est
		n = p.Input
	}
	if l, ok := n.(*plan.LimitNode); ok {
		sp.estLimit = l.Est
		n = l.Input
	}
	if s, ok := n.(*plan.SortNode); ok {
		sp.estSort = s.Est
		n = s.Input
	}
	if d, ok := n.(*plan.DistinctNode); ok {
		sp.estDistinct = d.Est
		n = d.Input
	}
	if a, ok := n.(*plan.AggregateNode); ok {
		sp.estAgg = a.Est
		n = a.Input
	}
	sp.access = n
	return sp
}

// runSelect plans and executes the FROM/WHERE/GROUP BY portion, returning
// the pre-projection relation (post-aggregation for aggregate queries, whose
// tuples end in one slot per aggregate call). The plan is kept on ec.sel so
// the projection stages can report their estimates.
func (ec *stmtCtx) runSelect(s *sqlparse.Select, sc *scanCtx) (relation, error) {
	if len(s.From) == 0 {
		// Table-less SELECT (e.g. SELECT 1+1): a single empty tuple.
		ec.sel = newSelPlan(plan.PlanSelect(stmtCatalog{ec}, s))
		return relation{env: env{params: ec.params}, tuples: []tuple{{}}}, nil
	}

	seen := map[string]bool{}
	for _, r := range fromRefs(s) {
		name := r.EffectiveName()
		if seen[name] {
			return relation{}, fmt.Errorf("duplicate table name or alias %q", name)
		}
		seen[name] = true
	}

	sp := newSelPlan(ec.selectPlan(s))
	ec.sel = sp
	cur, err := ec.execAccess(sp.access, sc)
	if err != nil {
		return relation{}, err
	}
	calls := selectAggregates(s)
	if len(calls) == 0 && len(s.GroupBy) == 0 {
		return cur, nil
	}
	err = ec.ops.execEst("aggregate", exprListText(s.GroupBy), sp.estAgg, func() (int, error) {
		var aerr error
		cur, aerr = aggregate(s, calls, cur)
		return len(cur.tuples), aerr
	})
	return cur, err
}

// scanCtx carries what a SELECT block's scans need beyond their plan
// nodes. lineage makes each scan stamp prov_usedby and record every source
// version it emits in sources (values are copied out only for refs that
// survive into the final Lineage; rows cannot change mid-statement, so the
// references stay valid). prov is whether the block itself names a hidden
// provenance column; it is decided per block, because an uncorrelated
// subquery runs its own execSelect inside the outer statement's context.
type scanCtx struct {
	lineage bool
	prov    bool
	stmtID  int64
	sources []sourceRow
}

// sourceRow is one stored version a lineage scan emitted.
type sourceRow struct {
	ref TupleRef
	row *storedRow
}

// selectNamesProv reports whether a SELECT block names a hidden provenance
// column in its items, WHERE, JOIN ON, GROUP BY, HAVING or ORDER BY
// (subqueries are already resolved to literals). SELECT * never expands to
// them.
func selectNamesProv(s *sqlparse.Select) bool {
	exprs := append([]sqlparse.Expr{s.Where, s.Having}, s.GroupBy...)
	for _, it := range s.Items {
		exprs = append(exprs, it.Expr)
	}
	for _, j := range s.Joins {
		exprs = append(exprs, j.On)
	}
	for _, o := range s.OrderBy {
		exprs = append(exprs, o.Expr)
	}
	return namesProv(exprs...)
}

// namesProv reports whether any expression references a hidden provenance
// column.
func namesProv(exprs ...sqlparse.Expr) bool {
	var refs []*sqlparse.ColumnRef
	for _, e := range exprs {
		columnRefs(e, &refs)
	}
	for _, r := range refs {
		if IsProvColumn(r.Column) {
			return true
		}
	}
	return false
}

// execAccess executes a relational plan subtree (scans, index scans,
// filters, hash joins), materializing its relation. A filter directly above
// a scan or index scan is fused into it.
func (ec *stmtCtx) execAccess(n plan.Node, sc *scanCtx) (relation, error) {
	switch node := n.(type) {
	case *plan.ScanNode, *plan.IndexScanNode:
		return ec.scan(node, nil, sc)
	case *plan.FilterNode:
		switch node.Input.(type) {
		case *plan.ScanNode, *plan.IndexScanNode:
			return ec.scan(node.Input, node, sc)
		}
		rel, err := ec.execAccess(node.Input, sc)
		if err != nil {
			return relation{}, err
		}
		return ec.execFilter(rel, node)
	case *plan.HashJoinNode:
		left, err := ec.execAccess(node.Left, sc)
		if err != nil {
			return relation{}, err
		}
		right, err := ec.execAccess(node.Right, sc)
		if err != nil {
			return relation{}, err
		}
		var out relation
		err = ec.ops.execEst("hash_join", node.Detail(), node.Est, func() (int, error) {
			var jerr error
			out, jerr = hashJoin(left, right, node.LeftKeys, node.RightKeys)
			return len(out.tuples), jerr
		})
		return out, err
	}
	return relation{}, fmt.Errorf("unsupported plan node %T", n)
}

// scan is the engine's one scan routine for SELECT. It walks a table's
// candidate versions (every version for a scan, the matching index buckets
// for an index scan), applies snapshot visibility, and evaluates the fused
// filter f (nil = none) on each visible version's stored values in place,
// building a tuple only for versions that pass. In lineage mode every
// visible version is stamped with prov_usedby, including versions the
// filter drops: that is the versioning write the paper charges to audit
// overhead (§IX-B), atomic because the scan holds only the read lock.
func (ec *stmtCtx) scan(leaf plan.Node, f *plan.FilterNode, sc *scanCtx) (relation, error) {
	var table, as string
	isn, _ := leaf.(*plan.IndexScanNode)
	if isn != nil {
		table, as = isn.Table, isn.As
	} else {
		sn := leaf.(*plan.ScanNode)
		table, as = sn.Table, sn.As
	}
	t, err := ec.table(table)
	if err != nil {
		// Unknown names fall back to the system-view registry: virtual
		// tables never appear in the lock footprint (lockTables skips
		// unresolved names) and take no locks of their own.
		vt := ec.db.virtualTable(table)
		if vt == nil {
			return relation{}, err
		}
		var rel relation
		_ = ec.ops.execEst(leaf.Op(), leaf.Detail(), leaf.EstRows(), func() (int, error) {
			rel = ec.scanVirtual(vt, as, sc.prov)
			return len(rel.tuples), nil
		})
		if f == nil {
			return rel, nil
		}
		return ec.execFilter(rel, f)
	}
	rel := relation{env: layoutEnv(t.Schema.Columns, as, sc.prov, ec.params)}
	var conj []predFn
	if f != nil {
		if conj, err = bindEach(f.Conjuncts, rel.env.bindPred); err != nil {
			return relation{}, err
		}
	}
	_ = ec.ops.execEst(leaf.Op(), leaf.Detail(), leaf.EstRows(), func() (int, error) {
		cand := t.rows
		if isn != nil {
			// A vanished index (impossible while the statement holds the
			// table lock) degrades to a full scan.
			if ix := t.findIndex(isn.Index); ix != nil {
				cand = indexCandidates(ix, isn, ec.params)
				ix.scans.Add(1)
			}
		}
		mRowsScanned.Add(int64(len(cand)))
		if len(conj) == 0 {
			rel.tuples = make([]tuple, 0, len(cand))
		}
		visible := 0
		for _, r := range cand {
			if !ec.snap.visible(r) {
				continue
			}
			visible++
			if sc.lineage {
				r.usedBy.Store(sc.stmtID)
			}
			vals := rowVals(r, sc.prov)
			if !passes(conj, vals) {
				continue
			}
			tp := tuple{vals: vals}
			if sc.lineage {
				ref := r.ref(t.Name)
				tp.lineage = []TupleRef{ref}
				sc.sources = append(sc.sources, sourceRow{ref, r})
			}
			rel.tuples = append(rel.tuples, tp)
		}
		return visible, nil
	})
	if f != nil && ec.ops != nil {
		// Fused: the filter's time is in the scan's record (see explain.go).
		ec.ops.recs = append(ec.ops.recs, opRecord{op: "filter", detail: f.Detail(), est: f.Est, rows: len(rel.tuples)})
	}
	return rel, nil
}

// layoutEnv binds a scanned table's tuple layout: its columns, then the
// four hidden provenance attributes if prov, all qualified by the
// effective (aliased) table name.
func layoutEnv(cols []Column, name string, prov bool, params []sqlval.Value) env {
	en := env{bindings: make([]binding, 0, len(cols)+4), params: params}
	for _, c := range cols {
		en.bindings = append(en.bindings, binding{table: name, name: c.Name})
	}
	if prov {
		for _, pc := range []string{ColProvRowID, ColProvV, ColProvP, ColProvUsedBy} {
			en.bindings = append(en.bindings, binding{table: name, name: pc})
		}
	}
	return en
}

// rowVals returns a stored version's values in layoutEnv's layout. Without
// provenance columns that is the stored slice itself, shared with no copy:
// a version's values are never mutated after insertRow publishes it (an
// UPDATE appends a successor version), and everything that hands rows out
// (project, hash-join combine, TupleValues) allocates its own slices. With
// them, it is a copy with the four attributes appended.
func rowVals(r *storedRow, prov bool) []sqlval.Value {
	if !prov {
		return r.vals
	}
	n := len(r.vals)
	vals := make([]sqlval.Value, n+4)
	copy(vals, r.vals)
	vals[n] = sqlval.NewInt(int64(r.id))
	vals[n+1] = sqlval.NewInt(int64(r.version))
	vals[n+2] = sqlval.NewString(r.proc)
	vals[n+3] = sqlval.NewInt(r.usedBy.Load())
	return vals
}

// execFilter runs a filter that is not fused into a scan: one above a join
// or a system view. Rows whose conjuncts fail to evaluate are dropped.
func (ec *stmtCtx) execFilter(rel relation, f *plan.FilterNode) (relation, error) {
	conj, err := bindEach(f.Conjuncts, rel.env.bindPred)
	if err != nil {
		return relation{}, err
	}
	out := rel.tuples[:0:0]
	_ = ec.ops.execEst("filter", f.Detail(), f.Est, func() (int, error) {
		for _, t := range rel.tuples {
			if passes(conj, t.vals) {
				out = append(out, t)
			}
		}
		return len(out), nil
	})
	rel.tuples = out
	return rel, nil
}

// fromRefs lists a SELECT's table references in syntactic FROM order.
func fromRefs(s *sqlparse.Select) []sqlparse.TableRef {
	refs := append([]sqlparse.TableRef(nil), s.From...)
	for _, j := range s.Joins {
		refs = append(refs, j.Table)
	}
	return refs
}

// hashJoin joins two relations on the given key expression lists. With no
// keys it degrades to a cross join.
func hashJoin(left, right relation, leftKeys, rightKeys []sqlparse.Expr) (relation, error) {
	lk, err := bindEach(leftKeys, left.env.bind)
	if err != nil {
		return relation{}, err
	}
	rk, err := bindEach(rightKeys, right.env.bind)
	if err != nil {
		return relation{}, err
	}
	out := relation{}
	out.env.bindings = append(append([]binding(nil), left.env.bindings...), right.env.bindings...)
	out.env.params = left.env.params

	combine := func(l, r tuple) tuple {
		vals := make([]sqlval.Value, 0, len(l.vals)+len(r.vals))
		vals = append(vals, l.vals...)
		vals = append(vals, r.vals...)
		return tuple{vals: vals, lineage: mergeLineage(l.lineage, r.lineage)}
	}

	if len(leftKeys) == 0 {
		for _, l := range left.tuples {
			for _, r := range right.tuples {
				out.tuples = append(out.tuples, combine(l, r))
			}
		}
		return out, nil
	}

	// keyOf encodes a tuple's join key into buf, reused across tuples (the
	// probe-side map lookup on string(buf) does not allocate).
	var buf []byte
	keyOf := func(t tuple, keys []evalFn) (bool, error) {
		buf = buf[:0]
		for _, k := range keys {
			v, err := k(t.vals)
			if err != nil || v.IsNull() {
				return false, err // NULL never joins
			}
			buf = v.AppendKey(buf)
		}
		return true, nil
	}

	// Build on the smaller side.
	buildRight := len(right.tuples) <= len(left.tuples)
	build, probe := right, left
	buildKeys, probeKeys := rk, lk
	if !buildRight {
		build, probe = left, right
		buildKeys, probeKeys = lk, rk
	}
	table := make(map[string][]int, len(build.tuples))
	for i, t := range build.tuples {
		ok, err := keyOf(t, buildKeys)
		if err != nil {
			return relation{}, err
		}
		if ok {
			table[string(buf)] = append(table[string(buf)], i)
		}
	}
	for _, p := range probe.tuples {
		ok, err := keyOf(p, probeKeys)
		if err != nil {
			return relation{}, err
		}
		if !ok {
			continue
		}
		for _, bi := range table[string(buf)] {
			b := build.tuples[bi]
			if buildRight {
				out.tuples = append(out.tuples, combine(p, b))
			} else {
				out.tuples = append(out.tuples, combine(b, p))
			}
		}
	}
	return out, nil
}

// selectAggregates lists the aggregate calls in a SELECT's items, ORDER BY
// and HAVING.
func selectAggregates(s *sqlparse.Select) []*sqlparse.FuncExpr {
	var calls []*sqlparse.FuncExpr
	for _, it := range s.Items {
		if it.Expr != nil {
			collectAggregates(it.Expr, &calls)
		}
	}
	for _, o := range s.OrderBy {
		collectAggregates(o.Expr, &calls)
	}
	if s.Having != nil {
		collectAggregates(s.Having, &calls)
	}
	return calls
}

// aggregate applies GROUP BY / aggregate semantics. Each output tuple is
// its group's first input tuple followed by one slot per aggregate call,
// and the output env binds each call to its slot.
func aggregate(s *sqlparse.Select, calls []*sqlparse.FuncExpr, rel relation) (relation, error) {
	for _, c := range calls {
		if !sqlparse.AggregateFuncs[c.Name] {
			return relation{}, fmt.Errorf("unknown function %s", c.Name)
		}
	}
	keys, err := bindEach(s.GroupBy, rel.env.bind)
	if err != nil {
		return relation{}, err
	}
	argExprs := make([]sqlparse.Expr, len(calls))
	for i, c := range calls {
		argExprs[i] = c.Arg
		if c.Arg == nil {
			argExprs[i] = &sqlparse.Literal{} // COUNT(*): NULL, unread
		}
	}
	args, err := bindEach(argExprs, rel.env.bind)
	if err != nil {
		return relation{}, err
	}
	width := len(rel.env.bindings)
	out := relation{env: env{
		bindings: append(append([]binding(nil), rel.env.bindings...), make([]binding, len(calls))...),
		params:   rel.env.params,
		aggs:     make(map[*sqlparse.FuncExpr]int, len(calls)),
	}}
	for i, c := range calls {
		out.env.aggs[c] = width + i
	}
	var having predFn
	if s.Having != nil {
		if having, err = out.env.bindPred(s.Having); err != nil {
			return relation{}, err
		}
	}

	type group struct {
		rep     tuple // representative tuple (first member)
		lineage []TupleRef
		linSeen map[TupleRef]bool
		accs    []*aggAcc
	}
	newAccs := func() []*aggAcc {
		accs := make([]*aggAcc, len(calls))
		for i, c := range calls {
			accs[i] = newAggAcc(c)
		}
		return accs
	}

	groups := map[string]*group{}
	var order []*group
	var key []byte
	for _, t := range rel.tuples {
		key = key[:0]
		for _, k := range keys {
			v, err := k(t.vals)
			if err != nil {
				return relation{}, err
			}
			key = v.AppendKey(key)
		}
		grp, ok := groups[string(key)]
		if !ok {
			grp = &group{rep: t, accs: newAccs()}
			groups[string(key)] = grp
			order = append(order, grp)
		}
		// Accumulate lineage with a per-group set: repeated mergeLineage
		// calls would be quadratic in the group size (fatal for global
		// aggregates like Q3's count(*), whose single group spans the whole
		// join result).
		if len(t.lineage) > 0 && grp.linSeen == nil {
			grp.linSeen = map[TupleRef]bool{}
		}
		for _, ref := range t.lineage {
			if !grp.linSeen[ref] {
				grp.linSeen[ref] = true
				grp.lineage = append(grp.lineage, ref)
			}
		}
		for i, arg := range args {
			v, err := arg(t.vals)
			if err != nil {
				return relation{}, err
			}
			grp.accs[i].add(v)
		}
	}
	// A global aggregate over an empty input still yields one (empty) group.
	if len(order) == 0 && len(s.GroupBy) == 0 {
		order = append(order, &group{rep: tuple{vals: make([]sqlval.Value, width)}, accs: newAccs()})
	}

	for _, grp := range order {
		vals := append(make([]sqlval.Value, 0, width+len(calls)), grp.rep.vals...)
		for _, acc := range grp.accs {
			v, err := acc.result()
			if err != nil {
				return relation{}, err
			}
			vals = append(vals, v)
		}
		// HAVING filters whole groups.
		if having != nil {
			t, err := having(vals)
			if err != nil {
				return relation{}, err
			}
			if t != triTrue {
				continue
			}
		}
		out.tuples = append(out.tuples, tuple{vals: vals, lineage: grp.lineage})
	}
	return out, nil
}

// aggAcc accumulates one aggregate call.
type aggAcc struct {
	fn       string
	star     bool
	distinct bool
	count    int64
	sum      float64
	sumInt   int64
	intOnly  bool
	overflow bool // sumInt left 64 bits
	min, max sqlval.Value
	seen     map[string]bool
	key      []byte // DISTINCT key buffer, reused across rows
}

func newAggAcc(c *sqlparse.FuncExpr) *aggAcc {
	a := &aggAcc{fn: c.Name, star: c.Star, distinct: c.Distinct, intOnly: true}
	if c.Distinct {
		a.seen = map[string]bool{}
	}
	return a
}

func (a *aggAcc) add(v sqlval.Value) {
	if a.star {
		a.count++
		return
	}
	if v.IsNull() {
		return
	}
	if a.distinct {
		a.key = v.AppendKey(a.key[:0])
		if a.seen[string(a.key)] {
			return
		}
		a.seen[string(a.key)] = true
	}
	a.count++
	switch a.fn {
	case "SUM", "AVG":
		if f, ok := v.AsFloat(); ok {
			a.sum += f
			if v.Kind() != sqlval.KindInt {
				a.intOnly = false
			} else if s, ok := sqlval.AddInt(a.sumInt, v.Int()); ok {
				a.sumInt = s
			} else {
				a.overflow = true
			}
		}
	case "MIN":
		if a.min.IsNull() {
			a.min = v
		} else if c, ok := v.Compare(a.min); ok && c < 0 {
			a.min = v
		}
	case "MAX":
		if a.max.IsNull() {
			a.max = v
		} else if c, ok := v.Compare(a.max); ok && c > 0 {
			a.max = v
		}
	}
}

// result is the aggregate's value; an all-INTEGER SUM whose running total
// left 64 bits is an error.
func (a *aggAcc) result() (sqlval.Value, error) {
	switch a.fn {
	case "COUNT":
		return sqlval.NewInt(a.count), nil
	case "SUM":
		switch {
		case a.count == 0:
			return sqlval.Null, nil
		case !a.intOnly:
			return sqlval.NewFloat(a.sum), nil
		case a.overflow:
			return sqlval.Null, sqlval.ErrIntRange
		}
		return sqlval.NewInt(a.sumInt), nil
	case "AVG":
		if a.count == 0 {
			return sqlval.Null, nil
		}
		return sqlval.NewFloat(a.sum / float64(a.count)), nil
	case "MIN":
		return a.min, nil
	case "MAX":
		return a.max, nil
	}
	return sqlval.Null, nil
}

// project evaluates the select list (star expansion excludes the hidden
// provenance attributes), then applies DISTINCT, ORDER BY, and LIMIT —
// each recorded as its own operator (with the planner's estimate from sp)
// when EXPLAIN ANALYZE is collecting. The select list and ORDER BY keys are
// bound once, before any row.
func project(s *sqlparse.Select, rel relation, withLineage bool, oc *opCollector, sp *selPlan) (cols []string, rows [][]sqlval.Value, lineage [][]TupleRef, err error) {
	var outs []evalFn
	for _, it := range s.Items {
		if !it.Star {
			name := it.Alias
			if name == "" {
				if cr, ok := it.Expr.(*sqlparse.ColumnRef); ok {
					name = cr.Column
				} else if fe, ok := it.Expr.(*sqlparse.FuncExpr); ok {
					name = strings.ToLower(fe.Name)
				} else {
					name = "column"
				}
			}
			f, err := rel.env.bind(it.Expr)
			if err != nil {
				return nil, nil, nil, err
			}
			cols, outs = append(cols, name), append(outs, f)
			continue
		}
		// Expand in syntactic FROM order, whatever order the joins ran in;
		// the hidden provenance attributes never expand.
		found := false
		for _, ref := range fromRefs(s) {
			if name := ref.EffectiveName(); it.Table == "" || name == it.Table {
				found = true
				for i, b := range rel.env.bindings {
					if b.table == name && !IsProvColumn(b.name) {
						cols = append(cols, b.name)
						outs = append(outs, func(vals []sqlval.Value) (sqlval.Value, error) { return vals[i], nil })
					}
				}
			}
		}
		if it.Table != "" && !found {
			return nil, nil, nil, fmt.Errorf("table %q does not exist in FROM clause", it.Table)
		}
	}

	// ORDER BY keys: a bare identifier that names no input column but an
	// output column orders by that output (out ≥ 0).
	type sortKey struct {
		out  int
		eval evalFn
	}
	keys := make([]sortKey, len(s.OrderBy))
	for k, ob := range s.OrderBy {
		keys[k].out = -1
		if cr, ok := ob.Expr.(*sqlparse.ColumnRef); ok && cr.Table == "" {
			if _, rerr := rel.env.resolve(cr); rerr != nil {
				keys[k].out = slices.Index(cols, cr.Column)
			}
		}
		if keys[k].out < 0 {
			if keys[k].eval, err = rel.env.bind(ob.Expr); err != nil {
				return nil, nil, nil, err
			}
		}
	}

	// Evaluate output rows plus ORDER BY keys.
	type outRow struct {
		vals    []sqlval.Value
		keys    []sqlval.Value
		lineage []TupleRef
	}
	outRows := make([]outRow, 0, len(rel.tuples))
	for _, t := range rel.tuples {
		r := outRow{vals: make([]sqlval.Value, len(outs)), lineage: t.lineage}
		for i, f := range outs {
			if r.vals[i], err = f(t.vals); err != nil {
				return nil, nil, nil, err
			}
		}
		if len(keys) > 0 {
			r.keys = make([]sqlval.Value, len(keys))
			for k, key := range keys {
				if key.eval == nil {
					r.keys[k] = r.vals[key.out]
				} else if r.keys[k], err = key.eval(t.vals); err != nil {
					return nil, nil, nil, err
				}
			}
		}
		outRows = append(outRows, r)
	}

	if s.Distinct {
		_ = oc.execEst("distinct", "", sp.estDistinct, func() (int, error) {
			seen := map[string]int{}
			dedup := outRows[:0:0]
			var linSeen []map[TupleRef]bool // parallel to dedup, lazily built
			var key []byte
			for _, r := range outRows {
				key = key[:0]
				for _, v := range r.vals {
					key = v.AppendKey(key)
				}
				if i, dup := seen[string(key)]; dup {
					// Union lineage through a per-row set; pairwise merging would
					// be quadratic in the duplicate count.
					if linSeen[i] == nil {
						linSeen[i] = map[TupleRef]bool{}
						for _, ref := range dedup[i].lineage {
							linSeen[i][ref] = true
						}
					}
					for _, ref := range r.lineage {
						if !linSeen[i][ref] {
							linSeen[i][ref] = true
							dedup[i].lineage = append(dedup[i].lineage, ref)
						}
					}
					continue
				}
				seen[string(key)] = len(dedup)
				dedup = append(dedup, r)
				linSeen = append(linSeen, nil)
			}
			outRows = dedup
			return len(outRows), nil
		})
	}

	if len(s.OrderBy) > 0 {
		keys := make([]sqlparse.Expr, len(s.OrderBy))
		for i, o := range s.OrderBy {
			keys[i] = o.Expr
		}
		_ = oc.execEst("sort", exprListText(keys), sp.estSort, func() (int, error) {
			sort.SliceStable(outRows, func(i, j int) bool {
				for k, ob := range s.OrderBy {
					a, b := outRows[i].keys[k], outRows[j].keys[k]
					if a.Equal(b) {
						continue
					}
					less := sqlval.SortLess(a, b)
					if ob.Desc {
						return !less
					}
					return less
				}
				return false
			})
			return len(outRows), nil
		})
	}
	if s.Limit >= 0 && len(outRows) > s.Limit {
		_ = oc.execEst("limit", strconv.Itoa(s.Limit), sp.estLimit, func() (int, error) {
			outRows = outRows[:s.Limit]
			return len(outRows), nil
		})
	}

	rows = make([][]sqlval.Value, len(outRows))
	lineage = make([][]TupleRef, len(outRows))
	for i, r := range outRows {
		rows[i] = r.vals
		lineage[i] = r.lineage
	}
	if !withLineage {
		lineage = nil
	}
	return cols, rows, lineage, nil
}
