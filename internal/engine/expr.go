package engine

import (
	"fmt"

	"ldv/internal/sqlparse"
	"ldv/internal/sqlval"
)

// binding names one slot of an executor tuple: the effective table name
// (alias if given) and the column name. Hidden provenance attributes are
// bound like ordinary columns.
type binding struct {
	table string
	name  string
}

// env resolves column references against the current tuple layout. params
// holds the execution's bound parameter values (prepared statements); it is
// copied into every derived env so `?` placeholders resolve at any depth of
// the operator tree. aggs maps each aggregate call of an aggregate query to
// the slot that holds its result in the grouped tuples.
type env struct {
	bindings []binding
	params   []sqlval.Value
	aggs     map[*sqlparse.FuncExpr]int
}

// resolve returns the slot index for a column reference. Unqualified names
// must be unambiguous across all bound tables.
func (e *env) resolve(ref *sqlparse.ColumnRef) (int, error) {
	found := -1
	for i, b := range e.bindings {
		if b.name != ref.Column {
			continue
		}
		if ref.Table != "" && b.table != ref.Table {
			continue
		}
		if found >= 0 {
			return -1, fmt.Errorf("column reference %q is ambiguous", ref.String())
		}
		found = i
	}
	if found < 0 {
		return -1, fmt.Errorf("column %q does not exist", ref.String())
	}
	return found, nil
}

// tuple is one row flowing through the executor, with its lineage (the set
// of stored tuple versions it depends on) when lineage tracking is on.
type tuple struct {
	vals    []sqlval.Value
	lineage []TupleRef
}

// mergeLineage unions two lineage lists, deduplicating refs.
func mergeLineage(a, b []TupleRef) []TupleRef {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	seen := make(map[TupleRef]bool, len(a)+len(b))
	out := make([]TupleRef, 0, len(a)+len(b))
	for _, r := range a {
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	for _, r := range b {
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	return out
}

// Expressions are bound once per operator: bind and bindPred resolve every
// column reference to a slot, every `?` to its value and every operator to
// its code, and return a closure over one tuple's values. Nothing is looked
// up by name per row.

// evalFn is a bound scalar expression.
type evalFn func(vals []sqlval.Value) (sqlval.Value, error)

// tri is a predicate outcome in SQL three-valued logic. The order FALSE <
// NULL < TRUE makes AND the minimum, OR the maximum and NOT triTrue − t.
type tri uint8

const (
	triFalse tri = iota
	triNull
	triTrue
)

func triOf(b bool) tri {
	if b {
		return triTrue
	}
	return triFalse
}

// predFn is a bound predicate: TRUE, FALSE or NULL, or an error. It never
// builds a BOOLEAN Value.
type predFn func(vals []sqlval.Value) (tri, error)

// cmpMasks encodes each comparison as the set of Cmp results (−1, 0, 1) it
// accepts, result c as bit c+1.
var cmpMasks = map[string]uint8{"=": 2, "<>": 5, "<": 1, "<=": 3, ">": 4, ">=": 6}

const maskEq, maskLE, maskGE = 2, 3, 6

// cmpTri compares two values in place under a comparison mask.
func cmpTri(a, b *sqlval.Value, mask uint8) tri {
	c, ok := sqlval.Cmp(a, b)
	if !ok {
		return triNull
	}
	return triOf(mask>>uint(c+1)&1 != 0)
}

// between combines BETWEEN's two comparisons.
func between(geLo, leHi tri, negated bool) tri {
	t := min(geLo, leHi)
	if negated {
		return triTrue - t
	}
	return t
}

// arithOps maps each arithmetic operator to its function. "+" doubles as
// concatenation when either side is text, matching the lenient behaviour of
// several engines.
var arithOps = map[string]func(a, b sqlval.Value) (sqlval.Value, error){
	"+": func(a, b sqlval.Value) (sqlval.Value, error) {
		if a.Kind() == sqlval.KindString || b.Kind() == sqlval.KindString {
			return sqlval.Concat(a, b)
		}
		return sqlval.Add(a, b)
	},
	"-": sqlval.Sub, "*": sqlval.Mul, "/": sqlval.Div, "%": sqlval.Mod, "||": sqlval.Concat,
}

// bindEach binds every expression of a list with one binder.
func bindEach[F any](exprs []sqlparse.Expr, bind func(sqlparse.Expr) (F, error)) ([]F, error) {
	out := make([]F, len(exprs))
	for i, e := range exprs {
		f, err := bind(e)
		if err != nil {
			return nil, err
		}
		out[i] = f
	}
	return out, nil
}

// operand reports where a kernel finds ex: the slot of a column reference
// or of a computed aggregate, or the value of a literal or bound parameter
// (which callers copy, never write). Anything else is slot −1 with no value.
func (en *env) operand(ex sqlparse.Expr) (int, *sqlval.Value, error) {
	switch e := ex.(type) {
	case *sqlparse.ColumnRef:
		i, err := en.resolve(e)
		return i, nil, err
	case *sqlparse.Literal:
		return -1, &e.Value, nil
	case *sqlparse.Param:
		if e.Index < 1 || e.Index > len(en.params) {
			return -1, nil, fmt.Errorf("parameter %d is not bound (%d values supplied)", e.Index, len(en.params))
		}
		return -1, &en.params[e.Index-1], nil
	case *sqlparse.FuncExpr:
		if i, ok := en.aggs[e]; ok {
			return i, nil, nil
		}
	}
	return -1, nil, nil
}

// bind binds a scalar expression.
func (en *env) bind(ex sqlparse.Expr) (evalFn, error) {
	switch e := ex.(type) {
	case *sqlparse.ColumnRef, *sqlparse.Literal, *sqlparse.Param, *sqlparse.FuncExpr:
		i, c, err := en.operand(ex)
		switch {
		case err != nil:
			return nil, err
		case c != nil:
			v := *c
			return func([]sqlval.Value) (sqlval.Value, error) { return v, nil }, nil
		case i >= 0:
			return func(vals []sqlval.Value) (sqlval.Value, error) { return vals[i], nil }, nil
		}
		return nil, fmt.Errorf("aggregates are not allowed here: %s", ex)
	case *sqlparse.UnaryExpr:
		if e.Op == "-" {
			return bindOver(en, func(ops [3]sqlval.Value) (sqlval.Value, error) { return sqlval.Neg(ops[0]) }, e.Expr)
		}
		if e.Op != "NOT" {
			return nil, fmt.Errorf("unsupported operator %q", e.Op)
		}
	case *sqlparse.BinaryExpr:
		if op, ok := arithOps[e.Op]; ok {
			return bindOver(en, func(ops [3]sqlval.Value) (sqlval.Value, error) { return op(ops[0], ops[1]) }, e.Left, e.Right)
		}
		if _, ok := cmpMasks[e.Op]; !ok && e.Op != "AND" && e.Op != "OR" && e.Op != "LIKE" {
			return nil, fmt.Errorf("unsupported operator %q", e.Op)
		}
	case *sqlparse.BetweenExpr, *sqlparse.InExpr, *sqlparse.IsNullExpr:
	default:
		return nil, fmt.Errorf("unsupported expression %T", ex)
	}
	// A predicate used as a value.
	p, err := en.pred(ex, "")
	if err != nil {
		return nil, err
	}
	return func(vals []sqlval.Value) (sqlval.Value, error) {
		t, err := p(vals)
		if err != nil || t == triNull {
			return sqlval.Null, err
		}
		return sqlval.NewBool(t == triTrue), nil
	}, nil
}

// bindOver binds a function of up to three evaluated operands, passed by
// value so that they stay on the stack. An operand's error is the result's.
func bindOver[R any](en *env, f func(ops [3]sqlval.Value) (R, error), exprs ...sqlparse.Expr) (func([]sqlval.Value) (R, error), error) {
	fs, err := bindEach(exprs, en.bind)
	if err != nil {
		return nil, err
	}
	return func(vals []sqlval.Value) (R, error) {
		var ops [3]sqlval.Value
		for i, fn := range fs {
			v, err := fn(vals)
			if err != nil {
				var zero R
				return zero, err
			}
			ops[i] = v
		}
		return f(ops)
	}, nil
}

// bindPred binds a top-level predicate: a filter conjunct, a DML WHERE or
// HAVING. A non-boolean value there is not TRUE, so it drops the row.
func (en *env) bindPred(ex sqlparse.Expr) (predFn, error) { return en.pred(ex, "") }

// pred binds ex as a predicate, through a kernel when one applies. op names
// the logical operator ex is an operand of ("" at the top); it rejects a
// non-boolean, non-NULL value.
func (en *env) pred(ex sqlparse.Expr, op string) (predFn, error) {
	if k, err := en.kernel(ex); k != nil || err != nil {
		return k, err
	}
	return en.generic(ex, op)
}

// kernel binds the predicates that compare a tuple's values in place:
// slot op constant, constant op slot, slot op slot and slot [NOT] BETWEEN
// constant AND constant. It returns nil for any other predicate.
func (en *env) kernel(ex sqlparse.Expr) (predFn, error) {
	var slots [3]int
	var consts [3]*sqlval.Value
	var mask uint8
	var args []sqlparse.Expr
	switch e := ex.(type) {
	case *sqlparse.BinaryExpr:
		if mask = cmpMasks[e.Op]; mask == 0 {
			return nil, nil
		}
		args = []sqlparse.Expr{e.Left, e.Right}
	case *sqlparse.BetweenExpr:
		args = []sqlparse.Expr{e.Expr, e.Lo, e.Hi}
	default:
		return nil, nil
	}
	for i, a := range args {
		var err error
		if slots[i], consts[i], err = en.operand(a); err != nil {
			return nil, err
		}
	}
	l, r := slots[0], slots[1]
	if be, ok := ex.(*sqlparse.BetweenExpr); ok {
		if l < 0 || consts[1] == nil || consts[2] == nil {
			return nil, nil
		}
		i, lo, hi := l, *consts[1], *consts[2]
		return func(vals []sqlval.Value) (tri, error) {
			v := &vals[i]
			return between(cmpTri(v, &lo, maskGE), cmpTri(v, &hi, maskLE), be.Negated), nil
		}, nil
	}
	if consts[0] != nil && r >= 0 {
		// constant op slot is slot op' constant, op' with its operands swapped.
		l, consts[1], mask = r, consts[0], mask&1<<2|mask&2|mask>>2
	}
	switch i, m := l, mask; {
	case i >= 0 && consts[1] != nil:
		c := *consts[1]
		return func(vals []sqlval.Value) (tri, error) { return cmpTri(&vals[i], &c, m), nil }, nil
	case i >= 0 && r >= 0:
		return func(vals []sqlval.Value) (tri, error) { return cmpTri(&vals[i], &vals[r], m), nil }, nil
	}
	return nil, nil
}

// generic binds a predicate as closures over evaluated operands.
func (en *env) generic(ex sqlparse.Expr, op string) (predFn, error) {
	switch e := ex.(type) {
	case *sqlparse.BinaryExpr:
		if mask, ok := cmpMasks[e.Op]; ok {
			return bindOver(en, func(ops [3]sqlval.Value) (tri, error) { return cmpTri(&ops[0], &ops[1], mask), nil }, e.Left, e.Right)
		}
		switch e.Op {
		case "AND", "OR":
			return en.logicPred(e)
		case "LIKE":
			return bindOver(en, like, e.Left, e.Right)
		}
	case *sqlparse.BetweenExpr:
		return bindOver(en, func(ops [3]sqlval.Value) (tri, error) {
			return between(cmpTri(&ops[0], &ops[1], maskGE), cmpTri(&ops[0], &ops[2], maskLE), e.Negated), nil
		}, e.Expr, e.Lo, e.Hi)
	case *sqlparse.IsNullExpr:
		return bindOver(en, func(ops [3]sqlval.Value) (tri, error) { return triOf(ops[0].IsNull() != e.Negated), nil }, e.Expr)
	case *sqlparse.InExpr:
		return en.inPred(e)
	case *sqlparse.UnaryExpr:
		if e.Op == "NOT" {
			p, err := en.pred(e.Expr, "NOT")
			if err != nil {
				return nil, err
			}
			return func(vals []sqlval.Value) (tri, error) {
				t, err := p(vals)
				return triTrue - t, err
			}, nil
		}
	}
	// A value used as a predicate.
	return bindOver(en, func(ops [3]sqlval.Value) (tri, error) {
		switch v := ops[0]; {
		case v.IsNull():
			return triNull, nil
		case v.Kind() == sqlval.KindBool:
			return triOf(v.Bool()), nil
		case op != "":
			return triFalse, fmt.Errorf("%s requires a boolean operand, got %s", op, v.Kind())
		}
		return triFalse, nil
	}, ex)
}

// like is LIKE over evaluated operands: a NULL operand makes it NULL, any
// other non-text one is an error.
func like(ops [3]sqlval.Value) (tri, error) {
	l, r := ops[0], ops[1]
	m, ok := sqlval.Like(l, r)
	switch {
	case ok:
		return triOf(m), nil
	case l.IsNull() || r.IsNull():
		return triNull, nil
	}
	return triFalse, fmt.Errorf("LIKE requires text operands, got %s and %s", l.Kind(), r.Kind())
}

// logicPred binds AND and OR, short-circuiting on the left operand where
// three-valued logic allows: FALSE decides AND, TRUE decides OR.
func (en *env) logicPred(e *sqlparse.BinaryExpr) (predFn, error) {
	l, err := en.pred(e.Left, e.Op)
	if err != nil {
		return nil, err
	}
	r, err := en.pred(e.Right, e.Op)
	if err != nil {
		return nil, err
	}
	decides := triOf(e.Op == "OR")
	return func(vals []sqlval.Value) (tri, error) {
		a, err := l(vals)
		if err != nil || a == decides {
			return a, err
		}
		b, err := r(vals)
		if decides == triFalse {
			return min(a, b), err
		}
		return max(a, b), err
	}, nil
}

// inPred binds [NOT] IN over a list (subqueries are resolved to lists
// before binding). Items are evaluated only up to the first match.
func (en *env) inPred(e *sqlparse.InExpr) (predFn, error) {
	fs, err := bindEach(append([]sqlparse.Expr{e.Expr}, e.List...), en.bind)
	if err != nil {
		return nil, err
	}
	return func(vals []sqlval.Value) (tri, error) {
		v, err := fs[0](vals)
		if err != nil {
			return triFalse, err
		}
		res := triFalse
		if v.IsNull() {
			res = triNull
		}
		for _, f := range fs[1:] {
			iv, err := f(vals)
			if err != nil {
				return triFalse, err
			}
			if res = max(res, cmpTri(&v, &iv, maskEq)); res == triTrue {
				break
			}
		}
		if e.Negated {
			res = triTrue - res
		}
		return res, nil
	}, nil
}

// passes reports whether every conjunct is TRUE on vals. A conjunct that
// fails to evaluate drops the row, as FALSE and NULL do.
func passes(conj []predFn, vals []sqlval.Value) bool {
	for _, p := range conj {
		if t, err := p(vals); err != nil || t != triTrue {
			return false
		}
	}
	return true
}

// evalConst evaluates an expression over no tuple: INSERT VALUES, the AS
// OF bound, VACUUM RETAIN and the REENACT transaction id.
func evalConst(ex sqlparse.Expr, params []sqlval.Value) (sqlval.Value, error) {
	en := env{params: params}
	if _, c, _ := en.operand(ex); c != nil {
		return *c, nil // a literal or parameter: no closure to build
	}
	f, err := en.bind(ex)
	if err != nil {
		return sqlval.Null, err
	}
	return f(nil)
}

// collectAggregates walks an expression and appends every aggregate call.
func collectAggregates(ex sqlparse.Expr, out *[]*sqlparse.FuncExpr) {
	switch e := ex.(type) {
	case *sqlparse.FuncExpr:
		*out = append(*out, e)
	case *sqlparse.BinaryExpr:
		collectAggregates(e.Left, out)
		collectAggregates(e.Right, out)
	case *sqlparse.UnaryExpr:
		collectAggregates(e.Expr, out)
	case *sqlparse.BetweenExpr:
		collectAggregates(e.Expr, out)
		collectAggregates(e.Lo, out)
		collectAggregates(e.Hi, out)
	case *sqlparse.InExpr:
		collectAggregates(e.Expr, out)
		for _, i := range e.List {
			collectAggregates(i, out)
		}
	case *sqlparse.IsNullExpr:
		collectAggregates(e.Expr, out)
	}
}

// columnRefs walks an expression and appends every column reference.
func columnRefs(ex sqlparse.Expr, out *[]*sqlparse.ColumnRef) {
	switch e := ex.(type) {
	case *sqlparse.ColumnRef:
		*out = append(*out, e)
	case *sqlparse.BinaryExpr:
		columnRefs(e.Left, out)
		columnRefs(e.Right, out)
	case *sqlparse.UnaryExpr:
		columnRefs(e.Expr, out)
	case *sqlparse.BetweenExpr:
		columnRefs(e.Expr, out)
		columnRefs(e.Lo, out)
		columnRefs(e.Hi, out)
	case *sqlparse.InExpr:
		columnRefs(e.Expr, out)
		for _, i := range e.List {
			columnRefs(i, out)
		}
	case *sqlparse.IsNullExpr:
		columnRefs(e.Expr, out)
	case *sqlparse.FuncExpr:
		if e.Arg != nil {
			columnRefs(e.Arg, out)
		}
	}
}
