package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"
)

// Operand sets of the expression golden test, one per operator family. The
// comparison set reaches the INTEGERs either side of 2^53 and the FLOAT
// 2^53; the arithmetic set reaches the INTEGER limits; the logic set mixes
// booleans with non-boolean operands.
var (
	goldenAll = []string{"NULL", "0", "1", "-7", "9007199254740992", "9007199254740993",
		"9223372036854775807", "1.0", "-2.5", "9007199254740992.0", "'abc'", "'a%'", "''",
		"TRUE", "FALSE", "DATE '1998-12-01'"}
	goldenArith = []string{"NULL", "0", "2", "-7", "9223372036854775807", "1.5", "'abc'", "TRUE", "DATE '1998-12-01'"}
	goldenLogic = []string{"NULL", "TRUE", "FALSE", "0", "'abc'"}
	goldenBound = []string{"NULL", "0", "9007199254740992", "9007199254740992.0", "'abc'", "DATE '1998-12-01'"}

	goldenCmpOps   = []string{"=", "<>", "<", "<=", ">", ">=", "LIKE"}
	goldenArithOps = []string{"+", "-", "*", "/", "%", "||"}
	goldenLogicOps = []string{"AND", "OR"}
	goldenCols     = []string{"i", "f", "s", "b", "d"}
)

// exprGoldenDigest is the digest of every case's outcome, recorded on the
// executor that walked the AST per row, minus the changed cases.
const exprGoldenDigest = "465276534c8483f7"

// exprGoldenChanged is the file listing every case whose outcome differs
// from that executor, one "statement => outcome" line each. Every one is
// due to one of three fixes: INTEGERs compare exactly rather than through
// float64, INTEGER arithmetic reports overflow instead of wrapping, and
// AND/OR reject a non-boolean operand as NOT does.
const exprGoldenChanged = "testdata/expr_golden_changed.txt"

// goldenCase is one statement of the expression golden test and what it
// produced: the sorted result rows with their kinds, or the error text.
type goldenCase struct{ sql, out string }

// exprGoldenCases runs every operator over the typed operands, as a value
// (table-less SELECT) and as a predicate over the operand table ov (SELECT
// WHERE with the operand in a column slot on either side, a cross join for
// column against column, and UPDATE WHERE, which reports errors that a
// SELECT filter drops), plus fixed-seed nested expressions.
func exprGoldenCases(t *testing.T) []goldenCase {
	db := newTestDB(t, "CREATE TABLE ov (id INTEGER, i INTEGER, f FLOAT, s TEXT, b BOOLEAN, d DATE)")
	// One row per distinct non-NULL operand, in the column of its kind, and
	// one all-NULL row.
	seen := map[string]bool{}
	id := 0
	for _, set := range [][]string{goldenAll, goldenArith, goldenLogic, goldenBound} {
		for _, lit := range set {
			if seen[lit] || lit == "NULL" {
				continue
			}
			seen[lit] = true
			res := mustExec(t, db, "SELECT "+lit, ExecOptions{})
			col := map[string]string{"INTEGER": "i", "FLOAT": "f", "TEXT": "s", "BOOLEAN": "b", "DATE": "d"}[res.Rows[0][0].Kind().String()]
			id++
			mustExec(t, db, fmt.Sprintf("INSERT INTO ov (id, %s) VALUES (%d, %s)", col, id, lit), ExecOptions{})
		}
	}
	mustExec(t, db, fmt.Sprintf("INSERT INTO ov (id) VALUES (%d)", id+1), ExecOptions{})

	var cases []goldenCase
	run := func(sql string) {
		res, err := db.Exec(sql, ExecOptions{})
		if err != nil {
			cases = append(cases, goldenCase{sql, "error: " + err.Error()})
			return
		}
		rows := make([]string, len(res.Rows))
		for i, r := range res.Rows {
			parts := make([]string, len(r))
			for j, v := range r {
				parts[j] = v.Kind().String() + ":" + v.String()
			}
			rows[i] = strings.Join(parts, "|")
		}
		sort.Strings(rows)
		cases = append(cases, goldenCase{sql, fmt.Sprintf("%d rows %s; affected %d", len(rows), strings.Join(rows, ";"), res.RowsAffected)})
	}
	families := []struct{ ops, operands []string }{
		{goldenCmpOps, goldenAll}, {goldenArithOps, goldenArith}, {goldenLogicOps, goldenLogic},
	}

	// Values.
	for _, fam := range families {
		for _, op := range fam.ops {
			for _, l := range fam.operands {
				for _, r := range fam.operands {
					run(fmt.Sprintf("SELECT %s %s %s", l, op, r))
				}
			}
		}
	}
	for _, x := range goldenAll {
		run("SELECT -(" + x + ")")
		run("SELECT NOT " + x)
		run("SELECT " + x + " IS NULL")
		run("SELECT " + x + " IS NOT NULL")
		for _, lo := range goldenBound {
			for _, hi := range goldenBound {
				run(fmt.Sprintf("SELECT %s BETWEEN %s AND %s", x, lo, hi))
				run(fmt.Sprintf("SELECT %s NOT BETWEEN %s AND %s", x, lo, hi))
				run(fmt.Sprintf("SELECT %s IN (%s, %s)", x, lo, hi))
				run(fmt.Sprintf("SELECT %s NOT IN (%s, %s)", x, lo, hi))
			}
		}
	}

	// Predicates over a column slot.
	var dml []string
	for _, c := range goldenCols {
		for _, fam := range families {
			for _, op := range fam.ops {
				for _, r := range fam.operands {
					run(fmt.Sprintf("SELECT id FROM ov WHERE %s %s %s", c, op, r))
					run(fmt.Sprintf("SELECT id FROM ov WHERE %s %s %s", r, op, c))
					dml = append(dml, fmt.Sprintf("UPDATE ov SET id = id WHERE %s %s %s", c, op, r))
				}
			}
		}
		run("SELECT id FROM ov WHERE -" + c)
		run("SELECT id FROM ov WHERE NOT " + c)
		run("SELECT id FROM ov WHERE " + c + " IS NULL")
		run("SELECT id FROM ov WHERE " + c + " IS NOT NULL")
		for _, lo := range goldenBound {
			for _, hi := range goldenBound {
				run(fmt.Sprintf("SELECT id FROM ov WHERE %s BETWEEN %s AND %s", c, lo, hi))
				run(fmt.Sprintf("SELECT id FROM ov WHERE %s NOT BETWEEN %s AND %s", c, lo, hi))
				run(fmt.Sprintf("SELECT id FROM ov WHERE %s IN (%s, %s)", c, lo, hi))
				dml = append(dml, fmt.Sprintf("UPDATE ov SET id = id WHERE %s BETWEEN %s AND %s", c, lo, hi))
			}
		}
		for _, c2 := range goldenCols {
			for _, op := range goldenCmpOps {
				run(fmt.Sprintf("SELECT x.id, y.id FROM ov x, ov y WHERE x.%s %s y.%s", c, op, c2))
			}
		}
	}

	// Fixed-seed nested expressions: values, predicates and DML.
	g := &exprGen{rng: rand.New(rand.NewSource(1))}
	for range 200 {
		v, p := g.value(3), g.pred(3)
		run("SELECT id, " + v + " FROM ov")
		run("SELECT id FROM ov WHERE " + p)
		dml = append(dml, "UPDATE ov SET id = id WHERE "+p)
	}
	for _, sql := range dml {
		run(sql)
	}
	return cases
}

// exprGen builds random expressions over ov's columns and the comparison
// operands. AND, OR and NOT only ever get predicate operands, so the nested
// cases do not depend on how a non-boolean logic operand is treated.
type exprGen struct{ rng *rand.Rand }

func (g *exprGen) pick(xs []string) string { return xs[g.rng.Intn(len(xs))] }

func (g *exprGen) value(depth int) string {
	switch n := g.rng.Intn(6); {
	case depth == 0 || n < 2:
		if g.rng.Intn(2) == 0 {
			return g.pick(goldenCols)
		}
		return g.pick(goldenAll)
	case n < 4:
		return "(" + g.value(depth-1) + " " + g.pick(goldenArithOps) + " " + g.value(depth-1) + ")"
	case n < 5:
		return "(-(" + g.value(depth-1) + "))"
	default:
		return "(" + g.pred(depth-1) + ")"
	}
}

func (g *exprGen) pred(depth int) string {
	if depth == 0 {
		return g.pick(goldenCols) + " IS NULL"
	}
	switch g.rng.Intn(7) {
	case 0, 1:
		return g.value(depth-1) + " " + g.pick(goldenCmpOps) + " " + g.value(depth-1)
	case 2:
		return "(" + g.pred(depth-1) + " " + g.pick(goldenLogicOps) + " " + g.pred(depth-1) + ")"
	case 3:
		return "NOT (" + g.pred(depth-1) + ")"
	case 4:
		return g.value(depth-1) + " BETWEEN " + g.value(depth-1) + " AND " + g.value(depth-1)
	case 5:
		return g.value(depth-1) + " IN (" + g.value(depth-1) + ", " + g.pick(goldenBound) + ")"
	default:
		return g.value(depth-1) + " IS NOT NULL"
	}
}

// TestExprGolden checks that every expression case outside the changed
// list reproduces the recorded digest, and that each changed case produces
// its listed outcome.
func TestExprGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs about nine thousand statements")
	}
	data, err := os.ReadFile(exprGoldenChanged)
	if err != nil {
		t.Fatal(err)
	}
	changed := map[string]string{}
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		sql, out, _ := strings.Cut(line, " => ")
		changed[sql] = out
	}
	var lines []string
	seen := map[string]bool{}
	for _, c := range exprGoldenCases(t) {
		seen[c.sql] = true
		if want, ok := changed[c.sql]; ok {
			if c.out != want {
				t.Errorf("%s: got %s, want %s", c.sql, c.out, want)
			}
			continue
		}
		lines = append(lines, c.sql+" => "+c.out)
	}
	for sql := range changed {
		if !seen[sql] {
			t.Errorf("changed case %q is not run", sql)
		}
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		fmt.Fprintln(h, l)
	}
	if got := hex.EncodeToString(h.Sum(nil))[:16]; got != exprGoldenDigest {
		t.Errorf("digest of %d unchanged cases = %s, want %s", len(lines), got, exprGoldenDigest)
	}
}
