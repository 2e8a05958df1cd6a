package engine_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"testing"

	"ldv/internal/engine"
	"ldv/internal/sqlval"
	"ldv/internal/tpch"
)

// goldenStep is one statement of the fixed TestScanGolden sequence.
type goldenStep struct {
	name string
	sql  string
}

// goldenSteps is the statement sequence TestScanGolden runs, in order: the
// 18 Table II queries plain and as SELECT PROVENANCE, queries that name the
// hidden provenance columns (prov_usedby values depend on the lineage
// statements before them, so the order matters), uncorrelated subqueries
// that name them on one side only, a range query before and after an index
// on l_suppkey, and DML matched with and without provenance columns.
func goldenSteps(cfg tpch.Config) []goldenStep {
	var steps []goldenStep
	for _, q := range tpch.Queries(cfg) {
		steps = append(steps,
			goldenStep{q.ID, q.SQL},
			goldenStep{q.ID + "/prov", "SELECT PROVENANCE" + strings.TrimPrefix(q.SQL, "SELECT")})
	}
	const rangeQ = "SELECT l_quantity, l_partkey FROM lineitem WHERE l_suppkey BETWEEN 1 AND 3"
	return append(steps,
		goldenStep{"prov-cols", "SELECT prov_rowid, prov_v, l_quantity FROM lineitem WHERE l_suppkey BETWEEN 1 AND 3"},
		goldenStep{"prov-where", "SELECT l_orderkey, l_linenumber FROM lineitem WHERE prov_v > 0 AND l_suppkey BETWEEN 1 AND 2"},
		goldenStep{"prov-join", "SELECT l.prov_usedby, o.o_orderkey FROM lineitem l, orders o WHERE l.l_orderkey = o.o_orderkey AND l.l_suppkey = 1"},
		goldenStep{"prov-join/prov", "SELECT PROVENANCE l.prov_usedby, o.prov_p, o.o_orderkey FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey WHERE l.l_suppkey = 2"},
		goldenStep{"prov-group", "SELECT prov_p, COUNT(*) FROM orders GROUP BY prov_p HAVING MIN(prov_v) > 0 ORDER BY prov_p"},
		goldenStep{"sub-inner-prov", "SELECT COUNT(*) FROM lineitem WHERE l_suppkey = (SELECT MIN(s_suppkey) FROM supplier WHERE prov_v > 0)"},
		goldenStep{"sub-outer-prov", "SELECT prov_v, n_name FROM nation WHERE n_regionkey = (SELECT MAX(r_regionkey) FROM region)"},
		goldenStep{"sub-prov/prov", "SELECT PROVENANCE o_orderkey, prov_usedby FROM orders WHERE o_custkey IN (SELECT c_custkey FROM customer WHERE prov_v > 0 AND c_custkey < 4)"},
		goldenStep{"range/noindex", rangeQ},
		goldenStep{"range/noindex/prov", "SELECT PROVENANCE" + strings.TrimPrefix(rangeQ, "SELECT")},
		goldenStep{"create-index", "CREATE INDEX ix_suppkey ON lineitem (l_suppkey) USING ordered"},
		goldenStep{"range/index", rangeQ},
		goldenStep{"range/index/prov", "SELECT PROVENANCE" + strings.TrimPrefix(rangeQ, "SELECT")},
		goldenStep{"range/index/prov-cols", "SELECT prov_rowid, prov_usedby, l_quantity FROM lineitem WHERE l_suppkey BETWEEN 1 AND 3"},
		goldenStep{"update", "UPDATE orders SET o_comment = 'golden' WHERE o_orderkey < 40 AND o_custkey > 10"},
		goldenStep{"update-prov", "UPDATE orders SET o_totalprice = prov_v WHERE prov_v > 0 AND o_orderkey < 20"},
		goldenStep{"delete-index", "DELETE FROM lineitem WHERE l_suppkey = 1 AND l_quantity > 40"},
		goldenStep{"after-dml", "SELECT o_orderkey, o_comment, o_totalprice FROM orders WHERE o_orderkey < 40"},
		goldenStep{"after-dml/prov", "SELECT PROVENANCE COUNT(*), SUM(l_quantity) FROM lineitem WHERE l_suppkey BETWEEN 1 AND 2"},
	)
}

// goldenDigests is the digest of every step, recorded on the executor that
// copied each scanned row into a fresh slice with all four provenance
// columns before filtering. Any executor change must reproduce it exactly.
var goldenDigests = map[string]string{
	"Q1-1":                  "rows:b191ee63bd08c2d6 lin:e3b0c44298fc1c14 tv:e3b0c44298fc1c14",
	"Q1-1/prov":             "rows:b191ee63bd08c2d6 lin:c081a4854dc6587f tv:c75642b8106c9e2c",
	"Q1-2":                  "rows:b191ee63bd08c2d6 lin:e3b0c44298fc1c14 tv:e3b0c44298fc1c14",
	"Q1-2/prov":             "rows:b191ee63bd08c2d6 lin:c081a4854dc6587f tv:c75642b8106c9e2c",
	"Q1-3":                  "rows:8bb05ac11b190b32 lin:e3b0c44298fc1c14 tv:e3b0c44298fc1c14",
	"Q1-3/prov":             "rows:8bb05ac11b190b32 lin:11ef2ec1b770f599 tv:b063c603c04891d6",
	"Q1-4":                  "rows:a500d5df979c705f lin:e3b0c44298fc1c14 tv:e3b0c44298fc1c14",
	"Q1-4/prov":             "rows:a500d5df979c705f lin:38b49a6dd6a5f6a8 tv:e488b25078b8d2e8",
	"Q1-5":                  "rows:12a1322a1750a04c lin:e3b0c44298fc1c14 tv:e3b0c44298fc1c14",
	"Q1-5/prov":             "rows:12a1322a1750a04c lin:c3fd03b05468ddfc tv:bc734c036a103c6e",
	"Q2-1":                  "rows:4ca1cbfcb73b64e2 lin:e3b0c44298fc1c14 tv:e3b0c44298fc1c14",
	"Q2-1/prov":             "rows:4ca1cbfcb73b64e2 lin:a920bce1809d7334 tv:c33929dc684726eb",
	"Q2-2":                  "rows:d1b06b55785694fc lin:e3b0c44298fc1c14 tv:e3b0c44298fc1c14",
	"Q2-2/prov":             "rows:d1b06b55785694fc lin:550169ffeccc7fe9 tv:dee7c23f7b6a887e",
	"Q2-3":                  "rows:3b60a0086fd19672 lin:e3b0c44298fc1c14 tv:e3b0c44298fc1c14",
	"Q2-3/prov":             "rows:3b60a0086fd19672 lin:e3b0c44298fc1c14 tv:e3b0c44298fc1c14",
	"Q2-4":                  "rows:3b60a0086fd19672 lin:e3b0c44298fc1c14 tv:e3b0c44298fc1c14",
	"Q2-4/prov":             "rows:3b60a0086fd19672 lin:e3b0c44298fc1c14 tv:e3b0c44298fc1c14",
	"Q3-1":                  "rows:458e932c34e8f29d lin:e3b0c44298fc1c14 tv:e3b0c44298fc1c14",
	"Q3-1/prov":             "rows:458e932c34e8f29d lin:2442dda649c733a4 tv:c33929dc684726eb",
	"Q3-2":                  "rows:94c9159461e0f54e lin:e3b0c44298fc1c14 tv:e3b0c44298fc1c14",
	"Q3-2/prov":             "rows:94c9159461e0f54e lin:364a1301b08c51c0 tv:dee7c23f7b6a887e",
	"Q3-3":                  "rows:8560a8e458abfa1f lin:e3b0c44298fc1c14 tv:e3b0c44298fc1c14",
	"Q3-3/prov":             "rows:8560a8e458abfa1f lin:8c05f325f65abfd2 tv:e3b0c44298fc1c14",
	"Q3-4":                  "rows:8560a8e458abfa1f lin:e3b0c44298fc1c14 tv:e3b0c44298fc1c14",
	"Q3-4/prov":             "rows:8560a8e458abfa1f lin:8c05f325f65abfd2 tv:e3b0c44298fc1c14",
	"Q4-1":                  "rows:661af0affb788512 lin:e3b0c44298fc1c14 tv:e3b0c44298fc1c14",
	"Q4-1/prov":             "rows:661af0affb788512 lin:f20a4595a95ef586 tv:1194c3781dc50dc9",
	"Q4-2":                  "rows:661af0affb788512 lin:e3b0c44298fc1c14 tv:e3b0c44298fc1c14",
	"Q4-2/prov":             "rows:661af0affb788512 lin:f20a4595a95ef586 tv:1194c3781dc50dc9",
	"Q4-3":                  "rows:471c04cd37b34d10 lin:e3b0c44298fc1c14 tv:e3b0c44298fc1c14",
	"Q4-3/prov":             "rows:471c04cd37b34d10 lin:139e3fbb16d9c992 tv:6db10ddabef54f37",
	"Q4-4":                  "rows:f72087cad7839a4e lin:e3b0c44298fc1c14 tv:e3b0c44298fc1c14",
	"Q4-4/prov":             "rows:f72087cad7839a4e lin:1f305044ee5fce73 tv:4138ff1fcdaa5abf",
	"Q4-5":                  "rows:81d38c5691892b8b lin:e3b0c44298fc1c14 tv:e3b0c44298fc1c14",
	"Q4-5/prov":             "rows:81d38c5691892b8b lin:fcb43f37fb7e6e0a tv:8e9568fa446e59ae",
	"prov-cols":             "rows:dcda7d2a47fee8cf lin:e3b0c44298fc1c14 tv:e3b0c44298fc1c14",
	"prov-where":            "rows:1869400d4fe8a838 lin:e3b0c44298fc1c14 tv:e3b0c44298fc1c14",
	"prov-join":             "rows:976759e6cd4e2565 lin:e3b0c44298fc1c14 tv:e3b0c44298fc1c14",
	"prov-join/prov":        "rows:a344642b3ae3b491 lin:88e4b6ca42392fff tv:8f83332d8d5df646",
	"prov-group":            "rows:83e364138d666cf6 lin:e3b0c44298fc1c14 tv:e3b0c44298fc1c14",
	"sub-inner-prov":        "rows:d7f5ee2673aac891 lin:e3b0c44298fc1c14 tv:e3b0c44298fc1c14",
	"sub-outer-prov":        "rows:177e9f8305f21f69 lin:e3b0c44298fc1c14 tv:e3b0c44298fc1c14",
	"sub-prov/prov":         "rows:3217f3e6a7bd7806 lin:cc94a27d02d077b0 tv:47c0616211c8739c",
	"range/noindex":         "rows:e21086a569ef372f lin:e3b0c44298fc1c14 tv:e3b0c44298fc1c14",
	"range/noindex/prov":    "rows:e21086a569ef372f lin:e0e7615e1dab51e0 tv:b063c603c04891d6",
	"create-index":          "rows:3b60a0086fd19672 lin:e3b0c44298fc1c14 tv:e3b0c44298fc1c14",
	"range/index":           "rows:e21086a569ef372f lin:e3b0c44298fc1c14 tv:e3b0c44298fc1c14",
	"range/index/prov":      "rows:e21086a569ef372f lin:e0e7615e1dab51e0 tv:b063c603c04891d6",
	"range/index/prov-cols": "rows:fff69cacf589304a lin:e3b0c44298fc1c14 tv:e3b0c44298fc1c14",
	"update":                "rows:6a8af542c42a3684 lin:e3b0c44298fc1c14 tv:e3b0c44298fc1c14",
	"update-prov":           "rows:9dbd904c894c873f lin:e3b0c44298fc1c14 tv:e3b0c44298fc1c14",
	"delete-index":          "rows:e222f796188b4c94 lin:e3b0c44298fc1c14 tv:e3b0c44298fc1c14",
	"after-dml":             "rows:7d75afa3606247a9 lin:e3b0c44298fc1c14 tv:e3b0c44298fc1c14",
	"after-dml/prov":        "rows:23a8468e1c3a2c32 lin:77247989a6b07655 tv:99a151cef07ac225",
}

// goldenExplain is the EXPLAIN ANALYZE operator/row-count sequence of
// each plain SELECT step, run right after it and recorded alongside
// goldenDigests.
var goldenExplain = map[string]string{
	"Q1-1/explain":                  "scan=29981 filter=554 project=554",
	"Q1-2/explain":                  "scan=29981 filter=554 project=554",
	"Q1-3/explain":                  "scan=29981 filter=1714 project=1714",
	"Q1-4/explain":                  "scan=29981 filter=2824 project=2824",
	"Q1-5/explain":                  "scan=29981 filter=7590 project=7590",
	"Q2-1/explain":                  "scan=750 filter=99 scan=7500 hash_join=938 scan=29981 hash_join=3723 project=3723",
	"Q2-2/explain":                  "scan=750 filter=9 scan=7500 hash_join=85 scan=29981 hash_join=376 project=376",
	"Q2-3/explain":                  "scan=750 filter=0 scan=7500 hash_join=0 scan=29981 hash_join=0 project=0",
	"Q2-4/explain":                  "scan=750 filter=0 scan=7500 hash_join=0 scan=29981 hash_join=0 project=0",
	"Q3-1/explain":                  "scan=750 filter=99 scan=7500 hash_join=938 scan=29981 hash_join=3723 aggregate=1 project=1",
	"Q3-2/explain":                  "scan=750 filter=9 scan=7500 hash_join=85 scan=29981 hash_join=376 aggregate=1 project=1",
	"Q3-3/explain":                  "scan=750 filter=0 scan=7500 hash_join=0 scan=29981 hash_join=0 aggregate=1 project=1",
	"Q3-4/explain":                  "scan=750 filter=0 scan=7500 hash_join=0 scan=29981 hash_join=0 aggregate=1 project=1",
	"Q4-1/explain":                  "scan=7500 scan=29981 filter=554 hash_join=554 aggregate=533 project=533",
	"Q4-2/explain":                  "scan=7500 scan=29981 filter=554 hash_join=554 aggregate=533 project=533",
	"Q4-3/explain":                  "scan=7500 scan=29981 filter=1714 hash_join=1714 aggregate=1529 project=1529",
	"Q4-4/explain":                  "scan=7500 scan=29981 filter=2824 hash_join=2824 aggregate=2356 project=2356",
	"Q4-5/explain":                  "scan=7500 scan=29981 filter=7590 hash_join=7590 aggregate=4714 project=4714",
	"prov-cols/explain":             "scan=29981 filter=1714 project=1714",
	"prov-where/explain":            "scan=29981 filter=1160 project=1160",
	"prov-join/explain":             "scan=7500 scan=29981 filter=554 hash_join=554 project=554",
	"prov-group/explain":            "scan=7500 aggregate=1 sort=1 project=1",
	"sub-inner-prov/explain":        "scan=50 filter=50 aggregate=1 project=1 scan=29981 filter=554 aggregate=1 project=1",
	"sub-outer-prov/explain":        "scan=5 aggregate=1 project=1 scan=25 filter=5 project=5",
	"range/noindex/explain":         "scan=29981 filter=1714 project=1714",
	"range/index/explain":           "index_scan=1714 filter=1714 project=1714",
	"range/index/prov-cols/explain": "index_scan=1714 filter=1714 project=1714",
	"after-dml/explain":             "scan=7500 filter=39 project=39",
}

// TestScanGolden runs a fixed-seed TPC-H database through goldenSteps and
// checks each result's row multiset, Lineage and TupleValues digests, plus
// the per-operator row counts EXPLAIN ANALYZE reports.
func TestScanGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("loads TPC-H SF 0.005")
	}
	cfg := tpch.Config{SF: 0.005, Seed: 42}
	db := engine.NewDB(nil)
	if _, err := tpch.Load(db, cfg); err != nil {
		t.Fatal(err)
	}
	check := func(table map[string]string, name, got string) {
		if want := table[name]; got != want {
			t.Errorf("%s: got %s, want %s", name, got, want)
		}
	}
	for _, st := range goldenSteps(cfg) {
		res, err := db.Exec(st.sql, engine.ExecOptions{})
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		check(goldenDigests, st.name, resultDigest(res))
		if !strings.HasPrefix(st.sql, "SELECT ") || strings.HasPrefix(st.sql, "SELECT PROVENANCE") {
			continue
		}
		res, err = db.Exec("EXPLAIN ANALYZE "+st.sql, engine.ExecOptions{})
		if err != nil {
			t.Fatalf("%s: EXPLAIN ANALYZE: %v", st.name, err)
		}
		var ops []string
		for _, r := range res.Rows {
			if op := r[0].Str(); op != "result" {
				ops = append(ops, fmt.Sprintf("%s=%s", op, r[3]))
			}
		}
		check(goldenExplain, st.name+"/explain", strings.Join(ops, " "))
	}
}

// resultDigest renders a result as three short digests: the row multiset
// (plus RowsAffected), the multiset of (row, sorted lineage) pairs, and the
// TupleValues map.
func resultDigest(res *engine.Result) string {
	row := func(vals []sqlval.Value) string {
		return string(sqlval.EncodeRow(nil, vals))
	}
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		rows[i] = row(r)
	}
	rows = append(rows, fmt.Sprint(len(res.Rows), res.RowsAffected))
	var lin []string
	for i, refs := range res.Lineage {
		parts := make([]string, len(refs))
		for j, ref := range refs {
			parts[j] = ref.String()
		}
		sort.Strings(parts)
		lin = append(lin, rows[i]+"|"+strings.Join(parts, ","))
	}
	var tv []string
	for ref, vals := range res.TupleValues {
		tv = append(tv, ref.String()+"|"+row(vals))
	}
	return "rows:" + multisetDigest(rows) + " lin:" + multisetDigest(lin) + " tv:" + multisetDigest(tv)
}

func multisetDigest(items []string) string {
	sort.Strings(items)
	h := sha256.New()
	for _, it := range items {
		fmt.Fprintf(h, "%d:%s", len(it), it)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
