package plan

import (
	"fmt"
	"strings"
	"testing"

	"ldv/internal/sqlparse"
)

// fixedCatalog is a deterministic stand-in for the engine's statistics.
type fixedCatalog map[string]TableStats

func (c fixedCatalog) TableStats(name string) (TableStats, bool) {
	st, ok := c[name]
	return st, ok
}

func testCatalog() fixedCatalog {
	return fixedCatalog{
		"orders": {
			Rows:    10000,
			Columns: []string{"id", "cust", "total", "region"},
			Indexes: []IndexMeta{
				{Name: "ix_cust", Column: "cust", Kind: "hash", Entries: 10000, Distinct: 500},
				{Name: "ix_total", Column: "total", Kind: "ordered", Entries: 10000, Distinct: 9000},
			},
		},
		"customers": {
			Rows:    500,
			Columns: []string{"id", "name", "region"},
			Indexes: []IndexMeta{
				{Name: "ix_name", Column: "name", Kind: "hash", Entries: 500, Distinct: 500},
			},
		},
		"tiny": {
			Rows:    3,
			Columns: []string{"a", "b"},
		},
	}
}

// outline renders a plan tree as one comparable string.
func outline(t *Tree) string {
	if t == nil {
		return "<nil>"
	}
	var parts []string
	for _, n := range t.Nodes() {
		parts = append(parts, fmt.Sprintf("%s[%s]est=%d", n.Op(), n.Detail(), int64(n.EstRows())))
	}
	return strings.Join(parts, ";")
}

// TestPlanDeterminism: the same statement against the same statistics must
// produce byte-identical plans, run after run — EXPLAIN output is a
// regression surface, not a dice roll.
func TestPlanDeterminism(t *testing.T) {
	queries := []string{
		"SELECT id FROM orders WHERE cust = 7",
		"SELECT id FROM orders WHERE total > 100 AND total < 200",
		"SELECT id FROM orders WHERE cust = 7 AND region = 'eu' AND total > 50",
		"SELECT o.id, c.name FROM orders o, customers c WHERE o.cust = c.id",
		"SELECT o.id FROM orders o, customers c, tiny t WHERE o.cust = c.id AND c.region = t.a",
		"SELECT region, count(*) FROM orders GROUP BY region HAVING count(*) > 3 ORDER BY region LIMIT 5",
		"SELECT DISTINCT region FROM orders WHERE total >= 10",
		"UPDATE orders SET total = 0 WHERE cust = 7",
		"DELETE FROM orders WHERE total < 5",
		"SELECT 1",
	}
	for _, q := range queries {
		stmt, err := sqlparse.Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		base := outline(PlanStatement(testCatalog(), stmt))
		for i := 0; i < 20; i++ {
			// Re-parse too: plan identity must not depend on AST pointer
			// values or parse order.
			stmt2, _ := sqlparse.Parse(q)
			if got := outline(PlanStatement(testCatalog(), stmt2)); got != base {
				t.Fatalf("%q: plan diverged on run %d:\n  %s\n  %s", q, i, base, got)
			}
		}
	}
}

// TestPlanIndexSelection pins the planner's core choices so cost-model
// changes show up as explicit test diffs.
func TestPlanIndexSelection(t *testing.T) {
	cases := []struct {
		sql     string
		want    string // substring that must appear in the outline
		absent  string // substring that must not
		comment string
	}{
		{"SELECT id FROM orders WHERE cust = 7", "index_scan[orders via ix_cust", "", "equality on a hash-indexed column"},
		{"SELECT id FROM orders WHERE total > 100", "index_scan[orders via ix_total", "", "range on an ordered index"},
		{"SELECT id FROM orders WHERE region = 'eu'", "scan[orders]", "index_scan", "no index on region"},
		{"SELECT id FROM orders WHERE cust > 3", "scan[orders]", "index_scan", "hash index cannot serve a range"},
		{"SELECT id FROM orders WHERE cust = id", "scan[orders]", "index_scan", "non-literal probe is not indexable"},
		{"SELECT o.id FROM orders o, customers c WHERE o.cust = c.id", "hash_join", "", "equi-join plans a hash join"},
	}
	for _, c := range cases {
		stmt, err := sqlparse.Parse(c.sql)
		if err != nil {
			t.Fatalf("parse %q: %v", c.sql, err)
		}
		got := outline(PlanStatement(testCatalog(), stmt))
		if !strings.Contains(got, c.want) {
			t.Errorf("%s (%q):\n  outline %s\n  missing %q", c.comment, c.sql, got, c.want)
		}
		if c.absent != "" && strings.Contains(got, c.absent) {
			t.Errorf("%s (%q):\n  outline %s\n  must not contain %q", c.comment, c.sql, got, c.absent)
		}
	}
}

// TestPlanJoinOrder: the greedy reorderer starts from the smallest base
// table, so the big probe side lands opposite small builds.
func TestPlanJoinOrder(t *testing.T) {
	stmt, err := sqlparse.Parse(
		"SELECT o.id FROM orders o, tiny t, customers c WHERE o.cust = c.id AND c.region = t.a")
	if err != nil {
		t.Fatal(err)
	}
	before := mReorderApplied.Load()
	tree := PlanStatement(testCatalog(), stmt)
	got := outline(tree)
	// tiny (3 rows, alias t) must be scanned before orders (10000 rows,
	// alias o) in the post-order walk once reordering applies.
	ti, oi := strings.Index(got, "scan[t]"), strings.Index(got, "scan[o]")
	if ti < 0 || oi < 0 || ti > oi {
		t.Errorf("join order outline = %s, want tiny joined before orders", got)
	}
	if d := mReorderApplied.Load() - before; d != 1 {
		t.Errorf("plan.reorder_applied grew by %d, want 1 for %s", d, got)
	}
}

// FuzzPlan lowers arbitrary parsed statements: whatever parses must plan
// without panicking, and every node must render.
func FuzzPlan(f *testing.F) {
	seeds := []string{
		"SELECT id FROM orders WHERE cust = 7",
		"SELECT * FROM orders o, customers c WHERE o.cust = c.id AND c.name = 'x'",
		"SELECT region, count(*) FROM orders GROUP BY region ORDER BY 1 DESC LIMIT 3",
		"UPDATE orders SET total = total + 1 WHERE total < 10 AND cust = 2",
		"DELETE FROM nowhere WHERE x = 1",
		"SELECT DISTINCT a FROM tiny WHERE b > 'q' AND b <= 'z'",
		"INSERT INTO tiny VALUES (1, 2)",
		"SELECT id FROM orders WHERE cust = 7 OR total > 9",
		"SELECT 1 + 2",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			t.Skip()
		}
		cat := testCatalog()
		tree := PlanStatement(cat, stmt)
		if tree == nil {
			return
		}
		for _, n := range tree.Nodes() {
			_ = n.Op()
			_ = n.Detail()
			_ = n.EstRows()
			_ = n.Lineage()
		}
		// Planning twice yields the same tree.
		if a, b := outline(tree), outline(PlanStatement(cat, stmt)); a != b {
			t.Fatalf("nondeterministic plan for %q:\n  %s\n  %s", sql, a, b)
		}
	})
}
