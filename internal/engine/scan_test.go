package engine

import (
	"math"
	"strings"
	"testing"

	"ldv/internal/sqlval"
)

// TestCompositeKeysWithNUL checks that GROUP BY, DISTINCT and multi-key hash
// joins keep tuples apart whose strings differ only in where an embedded
// NUL falls: ('x', 'y\x00sz') and ('x\x00sy', 'z') must not share a key.
func TestCompositeKeysWithNUL(t *testing.T) {
	db := NewDB(nil)
	mustExec(t, db, "CREATE TABLE t (a TEXT, b TEXT)", ExecOptions{})
	ins, err := db.Prepare("INSERT INTO t VALUES (?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	defer s.Close()
	for _, row := range [][2]string{{"x", "y\x00sz"}, {"x\x00sy", "z"}} {
		args := []sqlval.Value{sqlval.NewString(row[0]), sqlval.NewString(row[1])}
		if _, err := s.ExecPrepared(ins, args, ExecOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		sql  string
		want int
	}{
		{"SELECT a, b, COUNT(*) FROM t GROUP BY a, b", 2},
		{"SELECT DISTINCT a, b FROM t", 2},
		{"SELECT x.a FROM t x, t y WHERE x.a = y.a AND x.b = y.b", 2},
	} {
		if got := len(mustExec(t, db, c.sql, ExecOptions{}).Rows); got != c.want {
			t.Errorf("%s: %d rows, want %d", c.sql, got, c.want)
		}
	}
}

// TestFloatPrimaryKeyNegativeZero pins the key uniqueness rule: primary
// keys collide exactly when the values are Equal, so -0.0 duplicates 0.0.
func TestFloatPrimaryKeyNegativeZero(t *testing.T) {
	db := NewDB(nil)
	mustExec(t, db, "CREATE TABLE t (k FLOAT PRIMARY KEY)", ExecOptions{})
	ins, err := db.Prepare("INSERT INTO t VALUES (?)")
	if err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	defer s.Close()
	if _, err := s.ExecPrepared(ins, []sqlval.Value{sqlval.NewFloat(0)}, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	_, err = s.ExecPrepared(ins, []sqlval.Value{sqlval.NewFloat(math.Copysign(0, -1))}, ExecOptions{})
	if err == nil || !strings.Contains(err.Error(), "duplicate primary key") {
		t.Fatalf("inserting -0.0 after 0.0: err = %v, want duplicate primary key", err)
	}
	if n := len(mustExec(t, db, "SELECT k FROM t", ExecOptions{}).Rows); n != 1 {
		t.Errorf("%d rows, want 1", n)
	}
}

// TestLineageStampsFilteredRows checks that a lineage-collecting scan stamps
// prov_usedby on every visible row it reads, including the rows its filter
// then drops, and that later queries see the stamp.
func TestLineageStampsFilteredRows(t *testing.T) {
	db := NewDB(nil)
	mustExec(t, db, "CREATE TABLE t (a INTEGER, b INTEGER)", ExecOptions{})
	mustExec(t, db, "INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)", ExecOptions{})
	res := mustExec(t, db, "SELECT PROVENANCE b FROM t WHERE a = 2", ExecOptions{})
	if len(res.Rows) != 1 || len(res.Lineage) != 1 || len(res.Lineage[0]) != 1 {
		t.Fatalf("rows %v lineage %v, want one row with one source", res.Rows, res.Lineage)
	}
	stamp := res.StmtID
	after := mustExec(t, db, "SELECT a, prov_usedby FROM t ORDER BY a", ExecOptions{})
	if len(after.Rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(after.Rows))
	}
	for _, r := range after.Rows {
		if r[1].Int() != stamp {
			t.Errorf("row a=%v: prov_usedby = %v, want %d", r[0], r[1], stamp)
		}
	}
	// A plain query stamps nothing.
	mustExec(t, db, "SELECT b FROM t WHERE a = 1", ExecOptions{})
	again := mustExec(t, db, "SELECT prov_usedby FROM t WHERE prov_usedby = "+itoa(int(stamp)), ExecOptions{})
	if len(again.Rows) != 3 {
		t.Errorf("plain query changed prov_usedby: %d rows still stamped, want 3", len(again.Rows))
	}
}

// TestResultRowsDoNotAliasStorage checks that writing into a returned row
// never reaches stored data: scans may share stored values, but every
// result row is freshly allocated.
func TestResultRowsDoNotAliasStorage(t *testing.T) {
	db := NewDB(nil)
	mustExec(t, db, "CREATE TABLE t (a INTEGER, b TEXT)", ExecOptions{})
	mustExec(t, db, "INSERT INTO t VALUES (1, 'one'), (2, 'two')", ExecOptions{})
	queries := []string{
		"SELECT * FROM t",
		"SELECT a, b FROM t WHERE a >= 1",
		"SELECT PROVENANCE * FROM t",
		"SELECT a, b FROM t GROUP BY a, b",
		"SELECT DISTINCT * FROM t",
		"SELECT x.a, x.b FROM t x, t y WHERE x.a = y.a",
	}
	for _, q := range queries {
		res := mustExec(t, db, q, ExecOptions{})
		for _, r := range res.Rows {
			for i := range r {
				r[i] = sqlval.NewString("clobbered")
			}
		}
		for _, vals := range res.TupleValues {
			for i := range vals {
				vals[i] = sqlval.NewString("clobbered")
			}
		}
		check := mustExec(t, db, "SELECT a, b FROM t ORDER BY a", ExecOptions{})
		if len(check.Rows) != 2 || check.Rows[0][0].Int() != 1 || check.Rows[0][1].Str() != "one" ||
			check.Rows[1][0].Int() != 2 || check.Rows[1][1].Str() != "two" {
			t.Fatalf("after clobbering the result of %q, table reads %v", q, check.Rows)
		}
	}
}

// TestUnresolvedFilterErrorsOnEmptyTable checks that conjuncts the planner
// could not bind still fail on an empty input, whether the filter is fused
// into a scan or runs above a join.
func TestUnresolvedFilterErrorsOnEmptyTable(t *testing.T) {
	db := NewDB(nil)
	mustExec(t, db, "CREATE TABLE t (a INTEGER)", ExecOptions{})
	mustExec(t, db, "CREATE TABLE u (a INTEGER)", ExecOptions{})
	for _, c := range []struct{ sql, want string }{
		{"SELECT a FROM t WHERE nope = 1", "does not exist"},
		{"SELECT a FROM t WHERE a = 1 AND t.nope > 0", "does not exist"},
		{"SELECT t.a FROM t, u WHERE a = 1", "ambiguous"},
		{"SELECT a FROM t WHERE COUNT(*) > 0", "aggregates are not allowed"},
	} {
		_, err := db.Exec(c.sql, ExecOptions{})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.sql, err, c.want)
		}
	}
}

// TestStarFollowsFromOrderUnderJoinReorder checks that SELECT * lists
// columns in syntactic FROM order even when the planner joins the tables
// in a different order.
func TestStarFollowsFromOrderUnderJoinReorder(t *testing.T) {
	db := NewDB(nil)
	mustExec(t, db, "CREATE TABLE big (k INTEGER, b TEXT)", ExecOptions{})
	mustExec(t, db, "CREATE TABLE small (k INTEGER, s TEXT)", ExecOptions{})
	for i := 0; i < 50; i++ {
		mustExec(t, db, "INSERT INTO big VALUES ("+itoa(i)+", 'b"+itoa(i)+"')", ExecOptions{})
	}
	mustExec(t, db, "INSERT INTO small VALUES (7, 's7')", ExecOptions{})
	for _, c := range []struct {
		sql  string
		cols string
		row  string
	}{
		{"SELECT * FROM big, small WHERE big.k = small.k", "k,b,k,s", "7,b7,7,s7"},
		{"SELECT small.*, big.* FROM big JOIN small ON big.k = small.k", "k,s,k,b", "7,s7,7,b7"},
	} {
		if plan := mustExec(t, db, "EXPLAIN "+c.sql, ExecOptions{}); plan.Rows[0][1].Str() != "small" {
			t.Fatalf("%s: first leaf %v, want the join reordered to start at small", c.sql, plan.Rows[0])
		}
		res := mustExec(t, db, c.sql, ExecOptions{})
		if len(res.Rows) != 1 {
			t.Fatalf("%s: %d rows, want 1", c.sql, len(res.Rows))
		}
		var row []string
		for _, v := range res.Rows[0] {
			row = append(row, v.String())
		}
		if got := strings.Join(res.Columns, ","); got != c.cols || strings.Join(row, ",") != c.row {
			t.Errorf("%s: columns %s row %v, want %s / %s", c.sql, got, row, c.cols, c.row)
		}
	}
	_, err := db.Exec("SELECT nope.* FROM big, small WHERE big.k = small.k", ExecOptions{})
	if err == nil || !strings.Contains(err.Error(), "does not exist in FROM clause") {
		t.Errorf("star of an unknown table: err = %v", err)
	}
}
