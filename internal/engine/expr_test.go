package engine

import (
	"sort"
	"strings"
	"testing"

	"ldv/internal/sqlval"
)

// Expression semantics exercised through full statements.

func TestArithmeticInProjection(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (a INT, b FLOAT)")
	mustExec(t, db, "INSERT INTO t VALUES (7, 2.5)", ExecOptions{})
	res := mustExec(t, db, "SELECT a + 1, a - 1, a * 2, a / 2, a % 3, -a, a + b FROM t", ExecOptions{})
	got := rowsToStrings(res)[0]
	if got != "8|6|14|3|1|-7|9.5" {
		t.Fatalf("arithmetic = %q", got)
	}
}

func TestStringConcat(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (a TEXT, n INT)")
	mustExec(t, db, "INSERT INTO t VALUES ('x', 3)", ExecOptions{})
	res := mustExec(t, db, "SELECT a || '-' || 'y', a + 'z', 'n=' + n FROM t", ExecOptions{})
	got := rowsToStrings(res)[0]
	if got != "x-y|xz|n=3" {
		t.Fatalf("concat = %q", got)
	}
}

func TestDateComparisons(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (d DATE)")
	mustExec(t, db, "INSERT INTO t VALUES (DATE '1995-01-01'), (DATE '1998-06-15'), (NULL)", ExecOptions{})
	res := mustExec(t, db, "SELECT d FROM t WHERE d >= DATE '1996-01-01'", ExecOptions{})
	if len(res.Rows) != 1 || res.Rows[0][0].String() != "1998-06-15" {
		t.Fatalf("date filter = %v", rowsToStrings(res))
	}
	res = mustExec(t, db, "SELECT d FROM t WHERE d BETWEEN DATE '1994-01-01' AND DATE '1996-01-01'", ExecOptions{})
	if len(res.Rows) != 1 {
		t.Fatalf("date between = %v", rowsToStrings(res))
	}
	res = mustExec(t, db, "SELECT MIN(d), MAX(d) FROM t", ExecOptions{})
	if res.Rows[0][0].String() != "1995-01-01" || res.Rows[0][1].String() != "1998-06-15" {
		t.Fatalf("date min/max = %v", rowsToStrings(res))
	}
}

func TestBooleanColumnsAndLiterals(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (ok BOOLEAN, n INT)")
	mustExec(t, db, "INSERT INTO t VALUES (TRUE, 1), (FALSE, 2), (NULL, 3)", ExecOptions{})
	res := mustExec(t, db, "SELECT n FROM t WHERE ok", ExecOptions{})
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 1 {
		t.Fatalf("bool filter = %v", rowsToStrings(res))
	}
	res = mustExec(t, db, "SELECT n FROM t WHERE NOT ok", ExecOptions{})
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 2 {
		t.Fatalf("not bool = %v", rowsToStrings(res))
	}
	res = mustExec(t, db, "SELECT n FROM t WHERE ok OR n = 3", ExecOptions{})
	if len(res.Rows) != 2 {
		t.Fatalf("or with null = %v", rowsToStrings(res))
	}
}

func TestThreeValuedLogicTable(t *testing.T) {
	// AND/OR truth tables including UNKNOWN, probed via WHERE: a row
	// survives only when the predicate is TRUE. NULL = 1 is UNKNOWN.
	db := newTestDB(t, "CREATE TABLE t (x INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1)", ExecOptions{})
	cases := []struct {
		where string
		keep  bool
	}{
		{"TRUE AND TRUE", true},
		{"TRUE AND FALSE", false},
		{"TRUE AND x IS NULL", false}, // TRUE AND FALSE
		{"TRUE AND NULL = 1", false},  // TRUE AND UNKNOWN -> UNKNOWN
		{"FALSE AND NULL = 1", false}, // FALSE short-circuits
		{"TRUE OR NULL = 1", true},    // TRUE short-circuits
		{"FALSE OR NULL = 1", false},  // FALSE OR UNKNOWN -> UNKNOWN
		{"FALSE OR TRUE", true},
		{"NOT (NULL = 1)", false}, // NOT UNKNOWN -> UNKNOWN
		{"NOT FALSE", true},
	}
	for _, c := range cases {
		res := mustExec(t, db, "SELECT x FROM t WHERE "+c.where, ExecOptions{})
		if (len(res.Rows) == 1) != c.keep {
			t.Errorf("WHERE %s: kept=%v, want %v", c.where, len(res.Rows) == 1, c.keep)
		}
	}
}

func TestOrderByNullsFirst(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (a INT)")
	mustExec(t, db, "INSERT INTO t VALUES (2), (NULL), (1)", ExecOptions{})
	res := mustExec(t, db, "SELECT a FROM t ORDER BY a", ExecOptions{})
	got := rowsToStrings(res)
	if got[0] != "NULL" || got[1] != "1" || got[2] != "2" {
		t.Fatalf("nulls-first order = %v", got)
	}
	res = mustExec(t, db, "SELECT a FROM t ORDER BY a DESC", ExecOptions{})
	got = rowsToStrings(res)
	if got[2] != "NULL" {
		t.Fatalf("desc order = %v", got)
	}
}

func TestLimitZero(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (a INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1), (2)", ExecOptions{})
	res := mustExec(t, db, "SELECT a FROM t LIMIT 0", ExecOptions{})
	if len(res.Rows) != 0 {
		t.Fatalf("limit 0 = %v", rowsToStrings(res))
	}
}

func TestDivisionByZeroSurfacesInProjection(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (a INT)")
	mustExec(t, db, "INSERT INTO t VALUES (0)", ExecOptions{})
	if _, err := db.Exec("SELECT 1 / a FROM t", ExecOptions{}); err == nil {
		t.Fatal("division by zero in projection must error")
	}
}

func TestLikeOnNonTextIsError(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (a INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1)", ExecOptions{})
	// In the projection, the error surfaces; in WHERE it filters the row.
	if _, err := db.Exec("SELECT a LIKE '%x%' FROM t", ExecOptions{}); err == nil {
		t.Fatal("LIKE on integer must error in projection")
	}
	// NULL LIKE is UNKNOWN, not an error.
	db2 := newTestDB(t, "CREATE TABLE u (s TEXT)")
	mustExec(t, db2, "INSERT INTO u VALUES (NULL)", ExecOptions{})
	res := mustExec(t, db2, "SELECT s FROM u WHERE s LIKE '%x%'", ExecOptions{})
	if len(res.Rows) != 0 {
		t.Fatal("NULL LIKE must not match")
	}
}

func TestAggregateOfExpression(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (a INT, b INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 10), (2, 20)", ExecOptions{})
	res := mustExec(t, db, "SELECT SUM(a * b), AVG(b - a) FROM t", ExecOptions{})
	row := res.Rows[0]
	if row[0].Int() != 50 || row[1].Float() != 13.5 {
		t.Fatalf("agg expr = %v", rowsToStrings(res))
	}
	// Expression over an aggregate.
	res = mustExec(t, db, "SELECT SUM(b) / count(*) FROM t", ExecOptions{})
	if res.Rows[0][0].Int() != 15 {
		t.Fatalf("expr over agg = %v", rowsToStrings(res))
	}
}

func TestMinMaxOverStrings(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (s TEXT)")
	mustExec(t, db, "INSERT INTO t VALUES ('banana'), ('apple'), ('cherry')", ExecOptions{})
	res := mustExec(t, db, "SELECT MIN(s), MAX(s) FROM t", ExecOptions{})
	if res.Rows[0][0].Str() != "apple" || res.Rows[0][1].Str() != "cherry" {
		t.Fatalf("string min/max = %v", rowsToStrings(res))
	}
}

func TestProvColumnsQualifiedInJoins(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE a (x INT)", "CREATE TABLE b (y INT)")
	mustExec(t, db, "INSERT INTO a VALUES (1)", ExecOptions{Proc: "pa"})
	mustExec(t, db, "INSERT INTO b VALUES (1)", ExecOptions{Proc: "pb"})
	res := mustExec(t, db, "SELECT a.prov_p, b.prov_p FROM a, b WHERE a.x = b.y", ExecOptions{})
	if res.Rows[0][0].Str() != "pa" || res.Rows[0][1].Str() != "pb" {
		t.Fatalf("qualified prov = %v", rowsToStrings(res))
	}
	// Unqualified prov column in a join is ambiguous.
	if _, err := db.Exec("SELECT prov_p FROM a, b WHERE a.x = b.y", ExecOptions{}); err == nil {
		t.Fatal("ambiguous prov column must fail")
	}
}

func TestInsertExpressionValues(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (a INT, b TEXT)")
	mustExec(t, db, "INSERT INTO t VALUES (2 + 3 * 4, 'a' || 'b')", ExecOptions{})
	res := mustExec(t, db, "SELECT a, b FROM t", ExecOptions{})
	if rowsToStrings(res)[0] != "14|ab" {
		t.Fatalf("insert exprs = %v", rowsToStrings(res))
	}
	// Column references in VALUES are invalid.
	if _, err := db.Exec("INSERT INTO t VALUES (a, 'x')", ExecOptions{}); err == nil {
		t.Fatal("column ref in VALUES must fail")
	}
}

func TestUpdateSetFromOtherColumns(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (a INT, b INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 10), (2, 20)", ExecOptions{})
	mustExec(t, db, "UPDATE t SET a = b * 2, b = a WHERE a = 2", ExecOptions{})
	res := mustExec(t, db, "SELECT a, b FROM t WHERE b = 2", ExecOptions{})
	// Both SET expressions see the pre-update row: a = 20*2, b = old a = 2.
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 40 {
		t.Fatalf("update snapshot semantics = %v", rowsToStrings(res))
	}
}

func TestCompareIncomparableInWhereFiltersRow(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (a INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1)", ExecOptions{})
	res := mustExec(t, db, "SELECT a FROM t WHERE a = 'text'", ExecOptions{})
	if len(res.Rows) != 0 {
		t.Fatal("incomparable comparison must be UNKNOWN")
	}
}

func TestValuesWidenOnInsertSelect(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE src (a INT)", "CREATE TABLE dst (a FLOAT)")
	mustExec(t, db, "INSERT INTO src VALUES (3)", ExecOptions{})
	mustExec(t, db, "INSERT INTO dst SELECT a FROM src", ExecOptions{})
	res := mustExec(t, db, "SELECT a FROM dst", ExecOptions{})
	if res.Rows[0][0].Kind() != sqlval.KindFloat {
		t.Fatal("insert-select must widen int to float")
	}
}

// TestIntegersBeyond2p53AreExact checks that INTEGERs that round to the
// same float64 stay distinct in comparisons, primary keys, GROUP BY and
// DISTINCT, and that an INTEGER equals a FLOAT only at the same exact value.
func TestIntegersBeyond2p53AreExact(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (a INTEGER PRIMARY KEY, f FLOAT)")
	mustExec(t, db, "INSERT INTO t VALUES (9007199254740992, 9007199254740992.0)", ExecOptions{})
	mustExec(t, db, "INSERT INTO t VALUES (9007199254740993, 9007199254740992.0)", ExecOptions{})
	if _, err := db.Exec("INSERT INTO t VALUES (9007199254740993, 0.0)", ExecOptions{}); err == nil {
		t.Error("a second 9007199254740993 must be a duplicate primary key")
	}
	for _, c := range []struct{ sql, want string }{
		{"SELECT a FROM t WHERE a = 9007199254740993", "9007199254740993"},
		{"SELECT a FROM t WHERE a < 9007199254740993", "9007199254740992"},
		{"SELECT a FROM t WHERE a = f", "9007199254740992"},
		{"SELECT a FROM t WHERE a > f", "9007199254740993"},
		{"SELECT COUNT(*) FROM t GROUP BY a", "1,1"},
		{"SELECT COUNT(DISTINCT a) FROM t", "2"},
		{"SELECT DISTINCT a FROM t", "9007199254740992,9007199254740993"},
		{"SELECT DISTINCT x.a FROM t x JOIN t y ON x.a = y.f", "9007199254740992"},
	} {
		rows := rowsToStrings(mustExec(t, db, c.sql, ExecOptions{}))
		sort.Strings(rows)
		if got := strings.Join(rows, ","); got != c.want {
			t.Errorf("%s = %s, want %s", c.sql, got, c.want)
		}
	}
}

// TestIntegerOverflowIsAnError checks that INTEGER arithmetic and SUM
// report "integer out of range" instead of wrapping.
func TestIntegerOverflowIsAnError(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (a INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES (9223372036854775807), (1)", ExecOptions{})
	for _, sql := range []string{
		"SELECT 9223372036854775807 + 1",
		"SELECT -9223372036854775807 - 2",
		"SELECT 4611686018427387904 * 2",
		"SELECT -(-9223372036854775807 - 1)",
		"SELECT (-9223372036854775807 - 1) / -1",
		"SELECT SUM(a) FROM t",
		"UPDATE t SET a = a + 1",
	} {
		if _, err := db.Exec(sql, ExecOptions{}); err == nil || !strings.Contains(err.Error(), "integer out of range") {
			t.Errorf("%s: err = %v, want integer out of range", sql, err)
		}
	}
	res := mustExec(t, db, "SELECT 9223372036854775806 + 1, (-9223372036854775807 - 1) % -1, SUM(a - 1) FROM t", ExecOptions{})
	if got := rowsToStrings(res)[0]; got != "9223372036854775807|0|9223372036854775806" {
		t.Errorf("in-range results = %s", got)
	}
}

// TestLogicRejectsNonBooleanOperands checks that AND and OR reject a
// non-boolean operand as NOT does, so SELECT and UPDATE agree on a WHERE
// clause the planner splits into conjuncts.
func TestLogicRejectsNonBooleanOperands(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (a INTEGER, b TEXT)")
	mustExec(t, db, "INSERT INTO t VALUES (5, 'x')", ExecOptions{})
	for _, sql := range []string{
		"SELECT 5 AND TRUE",
		"SELECT 5 OR FALSE",
		"SELECT NOT 5",
		"UPDATE t SET b = 'y' WHERE a AND TRUE",
		"UPDATE t SET b = 'y' WHERE a OR TRUE",
	} {
		if _, err := db.Exec(sql, ExecOptions{}); err == nil || !strings.Contains(err.Error(), "requires a boolean operand") {
			t.Errorf("%s: err = %v, want a boolean-operand error", sql, err)
		}
	}
	if res := mustExec(t, db, "SELECT a FROM t WHERE a AND TRUE", ExecOptions{}); len(res.Rows) != 0 {
		t.Errorf("SELECT WHERE a AND TRUE = %v, want no rows", rowsToStrings(res))
	}
	if res := mustExec(t, db, "SELECT b FROM t", ExecOptions{}); rowsToStrings(res)[0] != "x" {
		t.Errorf("b = %v after the failed UPDATEs, want x", rowsToStrings(res))
	}
}

// TestBindErrorsOnEmptyInput checks that an unknown column anywhere in a
// SELECT is an error whether or not any row reaches its operator.
func TestBindErrorsOnEmptyInput(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (a INTEGER)", "CREATE TABLE u (a INTEGER)")
	for _, sql := range []string{
		"SELECT a FROM t GROUP BY nosuch",
		"SELECT SUM(nosuch) FROM t",
		"SELECT COUNT(*) FROM t GROUP BY a HAVING MAX(nosuch) > 0",
		"SELECT a FROM t ORDER BY nosuch",
		"SELECT t.a FROM t JOIN u ON t.a = u.nosuch",
		"UPDATE t SET a = nosuch",
		"DELETE FROM t WHERE nosuch = 1",
	} {
		if _, err := db.Exec(sql, ExecOptions{}); err == nil || !strings.Contains(err.Error(), "does not exist") {
			t.Errorf("%s: err = %v, want does not exist", sql, err)
		}
	}
}
