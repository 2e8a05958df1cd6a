package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"path"
	"sort"
	"strings"
	"sync"
	"testing"

	"ldv/internal/sqlval"
)

// mapFS is a minimal in-memory FileSystem for tests, including the append
// and remove extensions so it can back a WAL. Safe for concurrent use (the
// group-commit tests flush from multiple goroutines).
type mapFS struct {
	mu    sync.Mutex
	files map[string][]byte
}

func newMapFS() *mapFS { return &mapFS{files: map[string][]byte{}} }

func (m *mapFS) WriteFile(p string, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.files[p] = append([]byte(nil), data...)
	return nil
}

func (m *mapFS) AppendFile(p string, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.files[p] = append(m.files[p], data...)
	return nil
}

func (m *mapFS) Remove(p string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[p]; !ok {
		return fmt.Errorf("file %s not found", p)
	}
	delete(m.files, p)
	return nil
}

func (m *mapFS) ReadFile(p string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.files[p]
	if !ok {
		return nil, fmt.Errorf("file %s not found", p)
	}
	return append([]byte(nil), d...), nil
}

func (m *mapFS) ReadDir(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var names []string
	for p := range m.files {
		if path.Dir(p) == dir {
			names = append(names, path.Base(p))
		}
	}
	sort.Strings(names)
	return names, nil
}

func (m *mapFS) MkdirAll(string) error { return nil }

// snapshotFiles returns a deep copy of the current file set — the "surviving
// disk" image crash tests recover from.
func (m *mapFS) snapshotFiles() map[string][]byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string][]byte, len(m.files))
	for p, d := range m.files {
		out[p] = append([]byte(nil), d...)
	}
	return out
}

func TestCheckpointLoadRoundTrip(t *testing.T) {
	db := newTestDB(t,
		"CREATE TABLE t (a INT PRIMARY KEY, b TEXT, c FLOAT, d DATE, e BOOLEAN)",
		"CREATE TABLE u (x INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 'one', 1.5, DATE '2015-04-13', TRUE)", ExecOptions{Proc: "loader"})
	mustExec(t, db, "INSERT INTO t VALUES (2, NULL, NULL, NULL, FALSE)", ExecOptions{})
	mustExec(t, db, "INSERT INTO u VALUES (42)", ExecOptions{})
	mustExec(t, db, "UPDATE t SET b = 'uno' WHERE a = 1", ExecOptions{Proc: "updater"})

	fs := newMapFS()
	if err := db.Checkpoint(fs, "/data"); err != nil {
		t.Fatal(err)
	}
	if len(fs.files) != 2 {
		t.Fatalf("files = %v", fs.files)
	}

	db2 := NewDB(nil)
	if err := db2.LoadDir(fs, "/data"); err != nil {
		t.Fatal(err)
	}
	r1 := mustExec(t, db, "SELECT a, b, c, d, e, prov_rowid, prov_v, prov_p FROM t ORDER BY a", ExecOptions{})
	r2 := mustExec(t, db2, "SELECT a, b, c, d, e, prov_rowid, prov_v, prov_p FROM t ORDER BY a", ExecOptions{})
	if strings.Join(rowsToStrings(r1), "\n") != strings.Join(rowsToStrings(r2), "\n") {
		t.Fatalf("round trip mismatch:\n%v\nvs\n%v", rowsToStrings(r1), rowsToStrings(r2))
	}

	// Row ids must not collide after load: new inserts continue past the max.
	res := mustExec(t, db2, "INSERT INTO u VALUES (43)", ExecOptions{})
	refs, _, _ := db2.ScanAll("u")
	seen := map[RowID]bool{}
	for _, r := range refs {
		if seen[r.Row] {
			t.Fatal("duplicate row id after load")
		}
		seen[r.Row] = true
	}
	_ = res
}

func TestLoadDirErrors(t *testing.T) {
	fs := newMapFS()
	fs.files["/data/bad.tbl"] = []byte("garbage")
	db := NewDB(nil)
	if err := db.LoadDir(fs, "/data"); err == nil {
		t.Error("bad table file must error")
	}
	fs2 := newMapFS()
	fs2.files["/data/readme.txt"] = []byte("not a table")
	db2 := NewDB(nil)
	if err := db2.LoadDir(fs2, "/data"); err != nil {
		t.Errorf("non-.tbl files must be ignored: %v", err)
	}
}

func TestCreateTableFromSchema(t *testing.T) {
	db := NewDB(nil)
	schema := Schema{Columns: []Column{{Name: "id", Type: 1, PrimaryKey: true}}}
	if err := db.CreateTableFromSchema("t", schema); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTableFromSchema("t", schema); err == nil {
		t.Error("duplicate must fail")
	}
}

// TestCheckpointLoadCheckpointByteIdentical is the persistence round-trip
// property: checkpointing a freshly loaded checkpoint reproduces it byte for
// byte, over randomized (seeded) schemas and workloads. Byte identity is
// stronger than semantic equality — it pins the encoding as canonical, so a
// load/checkpoint cycle can never silently grow or reorder state.
func TestCheckpointLoadCheckpointByteIdentical(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := NewDB(nil)

		kinds := []string{"INT", "TEXT", "FLOAT", "BOOLEAN"}
		ntables := 1 + rng.Intn(3)
		for ti := 0; ti < ntables; ti++ {
			cols := []string{"id INT PRIMARY KEY"}
			ncols := 1 + rng.Intn(4)
			for ci := 0; ci < ncols; ci++ {
				cols = append(cols, fmt.Sprintf("c%d %s", ci, kinds[rng.Intn(len(kinds))]))
			}
			ddl := fmt.Sprintf("CREATE TABLE t%d (%s)", ti, strings.Join(cols, ", "))
			mustExec(t, db, ddl, ExecOptions{})
		}
		for _, name := range db.TableNames() {
			tbl, err := db.Table(name)
			if err != nil {
				t.Fatal(err)
			}
			nrows := rng.Intn(25)
			for ri := 0; ri < nrows; ri++ {
				vals := make([]string, 0, len(tbl.Schema.Columns))
				for _, c := range tbl.Schema.Columns {
					if c.PrimaryKey {
						vals = append(vals, fmt.Sprint(ri))
						continue
					}
					switch c.Type {
					case sqlval.KindInt:
						vals = append(vals, fmt.Sprint(rng.Intn(1000)))
					case sqlval.KindString:
						vals = append(vals, fmt.Sprintf("'s%d'", rng.Intn(1000)))
					case sqlval.KindFloat:
						vals = append(vals, fmt.Sprintf("%d.%d", rng.Intn(100), rng.Intn(100)))
					case sqlval.KindBool:
						vals = append(vals, []string{"TRUE", "FALSE"}[rng.Intn(2)])
					default:
						vals = append(vals, "NULL")
					}
				}
				mustExec(t, db, fmt.Sprintf("INSERT INTO %s VALUES (%s)", name, strings.Join(vals, ", ")),
					ExecOptions{Proc: fmt.Sprintf("p%d", rng.Intn(3))})
			}
			// A few updates and deletes so superseded versions exist and the
			// checkpoint's visibility filtering is exercised.
			for i := 0; i < rng.Intn(5); i++ {
				mustExec(t, db, fmt.Sprintf("DELETE FROM %s WHERE id = %d", name, rng.Intn(25)), ExecOptions{})
			}
		}

		fs1 := newMapFS()
		if err := db.Checkpoint(fs1, "/d"); err != nil {
			t.Fatalf("seed %d: first checkpoint: %v", seed, err)
		}
		db2 := NewDB(nil)
		if err := db2.LoadDir(fs1, "/d"); err != nil {
			t.Fatalf("seed %d: load: %v", seed, err)
		}
		fs2 := newMapFS()
		if err := db2.Checkpoint(fs2, "/d"); err != nil {
			t.Fatalf("seed %d: second checkpoint: %v", seed, err)
		}

		a, b := fs1.snapshotFiles(), fs2.snapshotFiles()
		if len(a) != len(b) {
			t.Fatalf("seed %d: file sets differ: %d vs %d", seed, len(a), len(b))
		}
		for p, data := range a {
			if !bytes.Equal(data, b[p]) {
				t.Fatalf("seed %d: %s differs after load/checkpoint round trip", seed, p)
			}
		}
	}
}

// TestLoadDirAllOrNothing: a corrupt table file anywhere in the directory
// fails the whole load before any table is installed, so the catalog, the
// row-id generator, the retention horizon and the clock stay as they were.
func TestLoadDirAllOrNothing(t *testing.T) {
	src := newTestDB(t, "CREATE TABLE a (k INT PRIMARY KEY, s TEXT)")
	for i := 0; i < 50; i++ {
		mustExec(t, src, fmt.Sprintf("INSERT INTO a VALUES (%d, 'v%d')", i, i), ExecOptions{})
	}
	mustExec(t, src, "DELETE FROM a WHERE k < 10", ExecOptions{})
	fs := newMapFS()
	if err := src.Checkpoint(fs, "/data"); err != nil {
		t.Fatal(err)
	}
	fs.files["/data/b.tbl"] = []byte("garbage")

	db := newTestDB(t, "CREATE TABLE a (k INT PRIMARY KEY, s TEXT)")
	mustExec(t, db, "INSERT INTO a VALUES (1, 'mine')", ExecOptions{})
	before := rowsToStrings(mustExec(t, db, "SELECT k, s, prov_rowid, prov_v FROM a", ExecOptions{}))
	nextRow, horizon, clock := db.nextRow.Load(), db.vacuumHorizon.Load(), db.ClockNow()
	if err := db.LoadDir(fs, "/data"); err == nil {
		t.Fatal("a corrupt b.tbl must fail the load")
	}
	if got := db.ClockNow(); got != clock {
		t.Errorf("clock moved from %d to %d", clock, got)
	}
	if got := db.nextRow.Load(); got != nextRow {
		t.Errorf("row-id generator moved from %d to %d", nextRow, got)
	}
	if got := db.vacuumHorizon.Load(); got != horizon {
		t.Errorf("retention horizon moved from %d to %d", horizon, got)
	}
	after := rowsToStrings(mustExec(t, db, "SELECT k, s, prov_rowid, prov_v FROM a", ExecOptions{}))
	if strings.Join(before, "\n") != strings.Join(after, "\n") {
		t.Errorf("table a replaced by a failed load:\n%v\nvs\n%v", before, after)
	}
	if names := db.TableNames(); len(names) != 1 {
		t.Errorf("tables after a failed load: %v", names)
	}
}

// loadDirAllocs measures the allocations of loading a checkpoint of n rows
// into a fresh database.
func loadDirAllocs(t *testing.T, n int) float64 {
	db := newTestDB(t,
		"CREATE TABLE f (id INT PRIMARY KEY, fk INT, v FLOAT, tag TEXT)",
		"CREATE TABLE g (a INT, b TEXT)")
	for i := 0; i < n; i++ {
		if _, err := db.InsertRowDirect("f", []sqlval.Value{sqlval.NewInt(int64(i)), sqlval.NewInt(int64(i % 7)),
			sqlval.NewFloat(float64(i) / 4), sqlval.NewString(fmt.Sprintf("tag-%d", i))}); err != nil {
			t.Fatal(err)
		}
		if _, err := db.InsertRowDirect("g", []sqlval.Value{sqlval.NewInt(int64(i)), sqlval.NewString("g")}); err != nil {
			t.Fatal(err)
		}
	}
	fs := newMapFS()
	if err := db.Checkpoint(fs, "/data"); err != nil {
		t.Fatal(err)
	}
	return testing.AllocsPerRun(5, func() {
		if err := NewDB(nil).LoadDir(fs, "/data"); err != nil {
			t.Fatal(err)
		}
	})
}

// TestLoadDirAllocationsFlat: decoding a table file allocates arenas, not
// rows, so loading 10 000 rows allocates about as often as loading 100. The
// slack covers the primary-key map, which since Go 1.24 allocates its hash
// table in pieces of at most 1024 slots (about 30 more pieces at 10 000
// keys).
func TestLoadDirAllocationsFlat(t *testing.T) {
	small, large := loadDirAllocs(t, 100), loadDirAllocs(t, 10000)
	if large > small+48 {
		t.Errorf("LoadDir allocations grow with rows: %v for 100 rows, %v for 10000", small, large)
	}
}

// aliasFS hands out its stored file contents instead of copies, so a test
// can overwrite the bytes a load read from.
type aliasFS struct{ *mapFS }

func (a aliasFS) ReadFile(p string) ([]byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	d, ok := a.files[p]
	if !ok {
		return nil, fmt.Errorf("file %s not found", p)
	}
	return d, nil
}

// tableStrings lists, in order, every string a table holds: its name, its
// column names, and each version's proc and TEXT values.
func tableStrings(t *Table) []string {
	out := []string{t.Name}
	for _, c := range t.Schema.Columns {
		out = append(out, c.Name)
	}
	for _, r := range t.rows {
		out = append(out, r.proc)
		for _, v := range r.vals {
			if v.Kind() == sqlval.KindString {
				out = append(out, v.Str())
			}
		}
	}
	return out
}

// TestLoadedTextDoesNotAlias: the strings of a loaded table are a copy, so
// overwriting the buffer it was decoded from (a file's contents, or the
// wire frame a replica image came in) changes none of them.
func TestLoadedTextDoesNotAlias(t *testing.T) {
	src := newTestDB(t, "CREATE TABLE words (id INT PRIMARY KEY, w TEXT, n INT)")
	for i := 0; i < 20; i++ {
		mustExec(t, src, fmt.Sprintf("INSERT INTO words VALUES (%d, 'word-%d', %d)", i, i, i), ExecOptions{Proc: "writer"})
	}
	mustExec(t, src, "UPDATE words SET w = 'changed' WHERE id < 5", ExecOptions{Proc: "updater"})
	srcTable, err := src.lookupTable("words")
	if err != nil {
		t.Fatal(err)
	}
	image := encodeTable(srcTable, src.takeSnapshot(0), 0)
	check := func(name string, db *DB, buf []byte) {
		t.Helper()
		tbl, err := db.lookupTable("words")
		if err != nil {
			t.Fatal(err)
		}
		want := tableStrings(tbl)
		for i := range want {
			want[i] = strings.Clone(want[i])
		}
		for i := range buf {
			buf[i] = 'X'
		}
		if got := tableStrings(tbl); strings.Join(got, "|") != strings.Join(want, "|") {
			t.Errorf("%s: strings changed with the source buffer:\n%q\nvs\n%q", name, want, got)
		}
	}

	fs := aliasFS{newMapFS()}
	fs.files["/data/words.tbl"] = append([]byte(nil), image...)
	db := NewDB(nil)
	if err := db.LoadDir(fs, "/data"); err != nil {
		t.Fatal(err)
	}
	check("LoadDir", db, fs.files["/data/words.tbl"])

	frame := append([]byte(nil), image...)
	replica := NewDB(nil)
	if _, err := replica.LoadTableImage(frame); err != nil {
		t.Fatal(err)
	}
	check("LoadTableImage", replica, frame)
}

// TestDecodeTableChecksCounts: a row or dead-version count that cannot fit
// in the bytes left is rejected before its arena is allocated.
func TestDecodeTableChecksCounts(t *testing.T) {
	header := []byte(tableFileMagic)
	header = appendString(header, "t")
	header = binary.AppendUvarint(header, 1)
	header = appendString(header, "k")
	header = append(header, byte(sqlval.KindInt), 1)
	huge := binary.AppendUvarint(append([]byte(nil), header...), 1<<60)
	deadHuge := binary.AppendUvarint(append([]byte(nil), header...), 0) // no live rows
	deadHuge = binary.AppendUvarint(deadHuge, 0)                        // no indexes
	deadHuge = binary.AppendUvarint(deadHuge, 1<<60)
	for name, data := range map[string][]byte{"rows": huge, "dead versions": deadHuge} {
		var err error
		allocs := testing.AllocsPerRun(3, func() { _, err = decodeTable(data) })
		if err == nil || !strings.Contains(err.Error(), "exceeds") {
			t.Errorf("%s: huge count: err = %v", name, err)
		}
		if allocs > 20 {
			t.Errorf("%s: %v allocations before rejecting the count", name, allocs)
		}
	}
}

// TestEncodeTableReusesImageSize: encodeTable starts from the size of the
// table's last image, so re-checkpointing a table that grew by less than an
// eighth writes into the one buffer it allocates.
func TestEncodeTableReusesImageSize(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (k INT PRIMARY KEY, s TEXT, f FLOAT, d DATE, b BOOLEAN)")
	mustExec(t, db, "CREATE INDEX t_s ON t (s)", ExecOptions{})
	for i := -300; i < 300; i += 3 {
		mustExec(t, db, fmt.Sprintf("INSERT INTO t VALUES (%d, '%s', %d.5, DATE '2015-04-13', %v)",
			i*i*i, strings.Repeat("x", (i+300)/8), i, i%2 == 0), ExecOptions{Proc: fmt.Sprintf("p%d", i)})
	}
	mustExec(t, db, "UPDATE t SET s = NULL WHERE k < 0", ExecOptions{})
	tbl, err := db.lookupTable("t")
	if err != nil {
		t.Fatal(err)
	}
	first := encodeTable(tbl, db.takeSnapshot(0), 1)
	mustExec(t, db, "INSERT INTO t VALUES (1000000000, 'one more', 0.5, NULL, TRUE)", ExecOptions{})
	snap := db.takeSnapshot(0)
	var next []byte
	if allocs := testing.AllocsPerRun(5, func() { next = encodeTable(tbl, snap, 1) }); allocs != 1 {
		t.Errorf("re-encoding after a small insert: %v allocations, want 1", allocs)
	}
	if len(next) <= len(first) {
		t.Errorf("image did not grow with the insert: %d then %d bytes", len(first), len(next))
	}
}
