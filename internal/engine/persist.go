package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"path"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"ldv/internal/sqlval"
)

// Checkpoint/WAL interplay: see wal.go for the log format and group-commit
// scheme, recover.go for replay. Checkpoint below is the log's only
// truncation point.

// FileSystem is the minimal filesystem surface the engine needs to persist
// its data directory. Both the simulated OS filesystem and the real disk
// satisfy it; the DB server writes through the simulated one so that
// file-granularity packagers (PTU) observe real data files.
//
// Atomicity contract: WriteFile must replace the file's contents
// atomically with respect to crashes — after a failure mid-call, a reader
// sees either the complete old contents or the complete new contents,
// never a partial mix. (osim swaps an in-memory node; diskfs writes a
// temporary file and renames it over the target.) Crash recovery leans on
// this: checkpoint table files and the truncated WAL image are each
// all-or-nothing, so torn state can only appear at the tail of an append
// (FileAppender), where the WAL's record checksums detect and discard it.
type FileSystem interface {
	WriteFile(path string, data []byte) error
	ReadFile(path string) ([]byte, error)
	ReadDir(path string) ([]string, error)
	MkdirAll(path string) error
}

// FileAppender is the optional append extension. Unlike WriteFile, an
// append interrupted by a crash may leave a prefix of the new bytes at the
// file's tail. The WAL prefers appends (one flush per group commit instead
// of rewriting the whole log) and tolerates the torn-tail semantics; when
// the FileSystem does not implement it, the WAL falls back to atomic
// whole-file rewrites of a mirrored image.
type FileAppender interface {
	AppendFile(path string, data []byte) error
}

// FileRemover is the optional delete extension. Checkpoint uses it to
// retire the table files of dropped tables; without it a stale .tbl file
// survives checkpoints and the table it holds reappears on the next
// recovery once the WAL record of the DROP has been truncated away.
type FileRemover interface {
	Remove(path string) error
}

const tableFileMagic = "LDVTBL1\n"

// Checkpoint writes every table to dir as <table>.tbl data files, creating
// dir if needed. The checkpoint is a fresh snapshot's view: uncommitted
// writes of transactions open at the time are excluded. When a WAL is
// attached, a completed checkpoint also truncates the log records it
// supersedes; see the protocol notes below.
//
// Truncation protocol: commits hold commitMu shared across their WAL
// append and active-set removal, and Checkpoint holds it exclusively while
// it copies the catalog, takes its snapshot, and records the log offset
// (the cut). Every record before the cut therefore belongs to a
// transaction the snapshot sees — it is fully contained in the table files
// written below — and every commit the snapshot misses sits at or after
// the cut, which truncateTo preserves. A crash anywhere in between leaves
// old and new table files mixed with an untruncated log, which recovery
// resolves by idempotent replay.
func (db *DB) Checkpoint(fs FileSystem, dir string) error {
	if err := fs.MkdirAll(dir); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	db.commitMu.Lock()
	db.mu.RLock()
	tables := make(map[string]*Table, len(db.tables))
	for name, t := range db.tables {
		tables[name] = t
	}
	db.mu.RUnlock()
	snap := db.takeSnapshot(0)
	wal := db.wal
	var cut int64
	if wal != nil {
		cut = wal.Size()
	}
	db.commitMu.Unlock()

	horizon := db.vacuumHorizon.Load()
	for name, t := range tables {
		t.mu.RLock()
		data := encodeTable(t, snap, horizon)
		t.mu.RUnlock()
		if err := fs.WriteFile(path.Join(dir, name+".tbl"), data); err != nil {
			return fmt.Errorf("checkpoint table %s: %w", name, err)
		}
	}
	// Retire table files whose tables were dropped: once the DROP's WAL
	// record is truncated below, a stale file would resurrect the table.
	if rm, ok := fs.(FileRemover); ok {
		names, err := fs.ReadDir(dir)
		if err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		for _, n := range names {
			tn, isTbl := strings.CutSuffix(n, ".tbl")
			if !isTbl {
				continue
			}
			if _, live := tables[tn]; !live {
				if err := rm.Remove(path.Join(dir, n)); err != nil {
					return fmt.Errorf("checkpoint: retire %s: %w", n, err)
				}
			}
		}
	}
	if wal != nil {
		if err := wal.truncateTo(cut); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
	}
	return nil
}

// LoadDir reads every <table>.tbl file in dir into the database, replacing
// any same-named tables. It is all-or-nothing: every file is decoded before
// any table is installed, so an unreadable or corrupt file leaves the
// database as it was.
func (db *DB) LoadDir(fs FileSystem, dir string) error {
	names, err := fs.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("load data dir: %w", err)
	}
	var loaded []loadedTable
	for _, n := range names {
		if !strings.HasSuffix(n, ".tbl") {
			continue
		}
		data, err := fs.ReadFile(path.Join(dir, n))
		if err != nil {
			return fmt.Errorf("load table file %s: %w", n, err)
		}
		lt, err := decodeTable(data)
		if err != nil {
			return fmt.Errorf("decode table file %s: %w", n, err)
		}
		loaded = append(loaded, lt)
	}
	db.install(loaded...)
	return nil
}

// loadedTable is a decoded table file, not yet in the catalog.
type loadedTable struct {
	t       *Table
	maxRow  RowID
	maxTS   uint64 // highest begin or end stamp of any version
	horizon uint64 // retention horizon the file was written under
}

// install puts decoded tables into the catalog, replacing same-named ones,
// and advances the row-id generator, the retention horizon and the clock
// past everything they hold. The clock matters for dead versions: a fresh
// clock behind their end stamps would read the ends as still in the future,
// and the versions would look alive again.
func (db *DB) install(loaded ...loadedTable) {
	var maxRow, maxTS, horizon uint64
	db.mu.Lock()
	for _, lt := range loaded {
		db.tables[lt.t.Name] = lt.t
		maxRow = max(maxRow, uint64(lt.maxRow))
		maxTS = max(maxTS, lt.maxTS)
		horizon = max(horizon, lt.horizon)
	}
	db.mu.Unlock()
	raiseTo(&db.nextRow, maxRow)
	raiseTo(&db.vacuumHorizon, horizon)
	if adv, ok := db.clock.(ClockAdvancer); ok {
		adv.AdvanceTo(maxTS)
	}
}

// raiseTo raises a to at least v.
func raiseTo(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Table file layout, after the magic: the table name; the columns (name,
// type byte, primary-key byte); the live rows (id, version, proc, stmt,
// usedBy, values); the secondary-index definitions (name, column, kind); the
// dead versions (id, version, end, proc, stmt, values); the retention
// horizon. Counts and integers are varints, strings are length-prefixed.
// The index and dead-version sections are optional on decode: files written
// before indexes or vacuum existed end after the rows.

// encodeTable writes the image of t that snap sees. A first pass counts the
// rows of each section from the version headers alone; the image is then
// written into one buffer sized from the table's last image (the file it
// was loaded from, or its last checkpoint) plus an eighth, so unless the
// table grew by more than that it is never copied to a larger one. Sizing
// it exactly would take a second read of every value, which costs more
// than the copies it saves.
func encodeTable(t *Table, snap snapshot, horizon uint64) []byte {
	var nlive, ndead int
	for _, r := range t.rows {
		switch {
		case snap.visible(r):
			nlive++
		case deadInImage(r, snap):
			ndead++
		}
	}
	last := int(t.imageSize.Load())
	buf := make([]byte, 0, last+last/8)
	buf = append(buf, tableFileMagic...)
	buf = appendString(buf, t.Name)
	buf = binary.AppendUvarint(buf, uint64(len(t.Schema.Columns)))
	for _, c := range t.Schema.Columns {
		buf = appendString(buf, c.Name)
		pk := byte(0)
		if c.PrimaryKey {
			pk = 1
		}
		buf = append(buf, byte(c.Type), pk)
	}
	buf = binary.AppendUvarint(buf, uint64(nlive))
	for _, r := range t.rows {
		if snap.visible(r) {
			buf = binary.AppendUvarint(buf, uint64(r.id))
			buf = binary.AppendUvarint(buf, r.version)
			buf = appendString(buf, r.proc)
			buf = binary.AppendVarint(buf, r.stmt)
			buf = binary.AppendVarint(buf, r.usedBy.Load())
			buf = sqlval.EncodeRow(buf, r.vals)
		}
	}
	idxs := t.indexList()
	buf = binary.AppendUvarint(buf, uint64(len(idxs)))
	for _, ix := range idxs {
		buf = appendString(buf, ix.name)
		buf = appendString(buf, ix.column)
		buf = appendString(buf, ix.kind)
	}
	// The dead versions are the history AS OF and reenactment read. Without
	// them a checkpoint would silently vacuum everything it supersedes in
	// the WAL.
	buf = binary.AppendUvarint(buf, uint64(ndead))
	for _, r := range t.rows {
		if deadInImage(r, snap) {
			buf = binary.AppendUvarint(buf, uint64(r.id))
			buf = binary.AppendUvarint(buf, r.version)
			buf = binary.AppendUvarint(buf, r.end)
			buf = appendString(buf, r.proc)
			buf = binary.AppendVarint(buf, r.stmt)
			buf = sqlval.EncodeRow(buf, r.vals)
		}
	}
	buf = binary.AppendUvarint(buf, horizon)
	t.imageSize.Store(int64(len(buf)))
	return buf
}

// deadInImage reports whether a version the snapshot does not see belongs
// in the image's dead-version section: its insert and its end mark are both
// committed.
func deadInImage(r *storedRow, snap snapshot) bool {
	if r.end == 0 || snap.visible(r) {
		return false
	}
	if _, open := snap.active[r.txnID]; open {
		return false // uncommitted insert: its record sits beyond the WAL cut
	}
	_, open := snap.active[r.endTxn]
	return !open // an uncommitted end mark leaves the row in the live section
}

// Minimum encoded sizes, for checking counts before allocating: a column is
// a name length, a type and a pk flag; a row is five one-byte varints (a
// dead row's proc length among them) and a value count, then one tag byte
// per column; an index definition is three string lengths.
const (
	minColumnSize = 3
	minRowSize    = 6
	minIndexSize  = 3
)

// decodeTable decodes a table file. Whatever the row count, it allocates a
// constant number of times: one storedRow arena and one value arena per
// section, one copy of data that every string is sliced from (so nothing
// aliases data, which may be a wire frame), and the primary-key index
// (whose Go map still grows its own tables). Each count is checked against
// the bytes that remain before anything is allocated for it.
func decodeTable(data []byte) (loadedTable, error) {
	var lt loadedTable
	if !bytes.HasPrefix(data, []byte(tableFileMagic)) {
		return lt, fmt.Errorf("bad table file magic")
	}
	d := sqlval.NewDecoder(data[len(tableFileMagic):])
	name := d.String()
	schema := Schema{Columns: make([]Column, d.Count(minColumnSize))}
	for i := range schema.Columns {
		c := &schema.Columns[i]
		c.Name = d.String()
		c.Type = sqlval.Kind(d.Byte())
		c.PrimaryKey = d.Byte() == 1
	}
	ncols := len(schema.Columns)
	live := make([]storedRow, d.Count(minRowSize+ncols))
	if err := d.Err(); err != nil {
		return lt, fmt.Errorf("table file header: %w", err)
	}
	t := newTable(name, schema)
	vals := make([]sqlval.Value, len(live)*ncols)
	t.rows = make([]*storedRow, len(live))
	for i := range live {
		r := &live[i]
		r.id = RowID(d.Uvarint())
		r.version = d.Uvarint()
		r.proc = d.String()
		r.stmt = d.Varint()
		r.usedBy.Store(d.Varint())
		r.vals = vals[i*ncols : (i+1)*ncols : (i+1)*ncols]
		d.Row(r.vals)
		if err := d.Err(); err != nil {
			return lt, fmt.Errorf("row %d: %w", i, err)
		}
		if err := t.checkRow(r.vals); err != nil {
			return lt, err
		}
		t.rows[i] = r
		lt.maxRow = max(lt.maxRow, r.id)
		lt.maxTS = max(lt.maxTS, r.version)
	}
	if err := t.rebuildPK(); err != nil {
		return lt, err
	}
	t.versions.Store(int64(len(live)))
	t.liveRows.Store(int64(len(live)))

	if d.Len() > 0 {
		idxs := make([]*tableIndex, 0, d.Count(minIndexSize))
		for i := 0; i < cap(idxs); i++ {
			iname, icol, ikind := d.String(), d.String(), d.String()
			if d.Err() != nil {
				break
			}
			pos := t.Schema.ColumnIndex(icol)
			if pos < 0 {
				return lt, fmt.Errorf("index %q: no column %q", iname, icol)
			}
			idxs = append(idxs, newTableIndex(iname, icol, pos, ikind))
		}
		if err := d.Err(); err != nil {
			return lt, fmt.Errorf("index section: %w", err)
		}
		if len(idxs) > 0 {
			sort.SliceStable(idxs, func(i, j int) bool { return idxs[i].name < idxs[j].name })
			t.indexes.Store(&idxs)
		}
	}
	if d.Len() > 0 {
		dead := make([]storedRow, d.Count(minRowSize+ncols))
		if err := d.Err(); err != nil {
			return lt, fmt.Errorf("dead-version count: %w", err)
		}
		vals := make([]sqlval.Value, len(dead)*ncols)
		t.rows = slices.Grow(t.rows, len(dead))
		for i := range dead {
			// Dead versions bypass the row check: no pk claim, no live count.
			r := &dead[i]
			r.id = RowID(d.Uvarint())
			r.version = d.Uvarint()
			r.end = d.Uvarint()
			r.proc = d.String()
			r.stmt = d.Varint()
			r.vals = vals[i*ncols : (i+1)*ncols : (i+1)*ncols]
			d.Row(r.vals)
			if err := d.Err(); err != nil {
				return lt, fmt.Errorf("dead version %d: %w", i, err)
			}
			if r.end == 0 {
				return lt, fmt.Errorf("dead version %d has no end stamp", i)
			}
			t.rows = append(t.rows, r)
			lt.maxRow = max(lt.maxRow, r.id)
			lt.maxTS = max(lt.maxTS, r.version, r.end)
		}
		t.versions.Add(int64(len(dead)))
		t.deadVersions.Store(int64(len(dead)))
		lt.horizon = d.Uvarint()
		if err := d.Err(); err != nil {
			return lt, fmt.Errorf("retention horizon: %w", err)
		}
		if d.Len() != 0 {
			return lt, fmt.Errorf("table file: %d trailing bytes", d.Len())
		}
	}
	// Index contents are derived last so they cover the dead versions too.
	t.rebuildIndexes()
	t.imageSize.Store(int64(len(data)))
	lt.t = t
	return lt, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func readString(b []byte) (string, []byte, error) {
	l, n := binary.Uvarint(b)
	if n <= 0 || uint64(len(b)-n) < l {
		return "", nil, fmt.Errorf("bad string encoding")
	}
	return string(b[n : n+int(l)]), b[n+int(l):], nil
}

// CreateTableFromSchema programmatically creates a table (bulk-load path).
// Like SQL DDL it is WAL-logged when a log is attached; the rows bulk
// loaders then push through InsertRowDirect/RestoreRow are not — those
// paths bypass transactions entirely, and callers that need them durable
// must Checkpoint afterwards (as the machine harness does).
func (db *DB) CreateTableFromSchema(name string, schema Schema) error {
	db.commitMu.RLock()
	defer db.commitMu.RUnlock()
	db.mu.Lock()
	if _, exists := db.tables[name]; exists {
		db.mu.Unlock()
		return fmt.Errorf("table %q already exists", name)
	}
	db.tables[name] = newTable(name, schema)
	db.mu.Unlock()
	if _, err := db.logDDL(redoEntry{kind: walCreate, table: name, schema: schema}); err != nil {
		db.mu.Lock()
		delete(db.tables, name)
		db.mu.Unlock()
		return err
	}
	return nil
}
