package engine

import (
	"errors"
	"fmt"
	"sort"
)

// Replication support: the primary side cuts a consistent snapshot against
// the WAL's record-sequence stream, and the replica side applies shipped
// records continuously through the same redo machinery Recover uses — but
// on a *live* database serving concurrent snapshot reads, which changes two
// things relative to boot-time replay:
//
//   - Every record is applied inside a registered transaction. Its rows are
//     stamped with the apply transaction's id and its end marks with the
//     same id, so a concurrent snapshot classifies the half-applied record
//     as uncommitted and skips it entirely. Deregistering the transaction
//     is the atomic visibility flip: a read sees a record's effects all or
//     nothing, and records become visible strictly in ship order — every
//     snapshot is a prefix of the primary's commit history.
//   - Primary-key indexes are maintained incrementally (recovery rebuilds
//     them at the end instead). Within one record an UPDATE's end mark
//     precedes its insert — the order exec_dml logs them — so the key is
//     free by the time the successor version claims it.
//
// The snapshot cut leans on the same commitMu argument as Checkpoint:
// committers hold it shared across WAL-append + active-set removal, so with
// it held exclusively no transaction is between those two steps. Every
// record with sequence ≤ cut belongs to a transaction the snapshot sees,
// and every transaction the snapshot misses will flush at a sequence > cut:
// snapshot and stream partition the history exactly at the cut.

// ErrReadOnly is returned for write statements while the database is in
// read-only mode (a replica before promotion). Match with errors.Is.
var ErrReadOnly = errors.New("database is read-only (replica)")

// TableImage is one table's snapshot encoding (the checkpoint .tbl file
// format) as shipped to a bootstrapping replica.
type TableImage struct {
	Name string
	Data []byte
}

// ReplSnapshot is a consistent snapshot of the whole database paired with
// the WAL record sequence it cuts the log at: records with sequence ≤
// CutSeq are contained in the images, records after it are not.
type ReplSnapshot struct {
	Tables []TableImage
	CutSeq uint64
}

// ReplicationSnapshot captures a snapshot for replica bootstrap. It holds
// the commit barrier only while copying the catalog and recording the cut;
// table encoding happens afterwards under per-table read locks, like
// Checkpoint. Requires an attached WAL (the cut is a WAL position).
func (db *DB) ReplicationSnapshot() (*ReplSnapshot, error) {
	db.commitMu.Lock()
	if db.wal == nil {
		db.commitMu.Unlock()
		return nil, fmt.Errorf("replication snapshot: no WAL attached")
	}
	db.mu.RLock()
	tables := make(map[string]*Table, len(db.tables))
	for name, t := range db.tables {
		tables[name] = t
	}
	db.mu.RUnlock()
	snap := db.takeSnapshot(0)
	cut := db.wal.Seq()
	db.commitMu.Unlock()

	names := make([]string, 0, len(tables))
	for n := range tables {
		names = append(names, n)
	}
	sort.Strings(names)
	rs := &ReplSnapshot{CutSeq: cut, Tables: make([]TableImage, 0, len(names))}
	horizon := db.vacuumHorizon.Load()
	for _, name := range names {
		t := tables[name]
		t.mu.RLock()
		data := encodeTable(t, snap, horizon)
		t.mu.RUnlock()
		rs.Tables = append(rs.Tables, TableImage{Name: name, Data: data})
	}
	return rs, nil
}

// ClearForReplication drops every table, returning the database to empty
// before a (re-)bootstrap loads a fresh snapshot. Reads racing a bootstrap
// see an empty or partial catalog; the replication layer gates client reads
// until the bootstrap completes.
func (db *DB) ClearForReplication() {
	db.mu.Lock()
	db.tables = make(map[string]*Table)
	db.mu.Unlock()
}

// LoadTableImage installs one snapshot table image (replacing any same-named
// table) and advances the row-id generator and the clock past its rows.
func (db *DB) LoadTableImage(data []byte) (string, error) {
	lt, err := decodeTable(data)
	if err != nil {
		return "", fmt.Errorf("load table image: %w", err)
	}
	db.install(lt)
	return lt.t.Name, nil
}

// FinishLoad aligns the statement-id generator and the logical clock with
// everything the loaded images reference — the bootstrap counterpart of
// recovery's final step. Call once after the last LoadTableImage.
func (db *DB) FinishLoad() {
	db.finishRecovery()
}

// Applier applies shipped WAL records to a live replica database. It keeps
// the persistent replay index that makes re-application idempotent; use one
// Applier per bootstrap (a fresh snapshot invalidates the index). Not safe
// for concurrent use — records are a serial stream.
type Applier struct {
	db *DB
	ix *replayIndex
}

// NewApplier returns an applier over the database's current contents.
func (db *DB) NewApplier() *Applier {
	return &Applier{db: db, ix: newReplayIndex(db)}
}

// ApplyRecord applies one committed transaction's record (the payload bytes
// of a WAL record, as produced by SplitWALBatch) and returns the highest
// logical timestamp it carried. The record's effects become visible to
// concurrent snapshot reads atomically, after the replica clock has been
// advanced past them.
func (a *Applier) ApplyRecord(payload []byte) (uint64, error) {
	origID, entries, err := decodeWALTxn(payload)
	if err != nil {
		return 0, fmt.Errorf("replication apply: %w", err)
	}
	x := a.db.beginTxn()
	var maxTS uint64
	var horizon uint64
	for _, e := range entries {
		switch e.kind {
		case walVacuum:
			// Prune after the record's data entries have been applied and the
			// clock advanced, below.
			if e.version > horizon {
				horizon = e.version
			}
			if e.version > maxTS {
				maxTS = e.version
			}
		case walStmt:
			// History is keyed by the primary's transaction id — the id
			// REENACT on this replica is asked about.
			a.db.recordRecoveredStmt(origID, e, 0)
			if e.end > maxTS {
				maxTS = e.end
			}
		default:
			if err := a.db.applyLive(a.ix, x.id, e, &maxTS); err != nil {
				a.db.endTxn(x.id)
				return 0, err
			}
		}
	}
	// Advance the clock before the visibility flip so any snapshot that can
	// see this record (taken after endTxn) also post-dates its timestamps.
	if adv, ok := a.db.clock.(ClockAdvancer); ok {
		adv.AdvanceTo(maxTS)
	}
	a.db.endTxnCommitted(x.id)
	if horizon > 0 {
		// Apply the primary's retention horizon verbatim so both sides
		// converge on the same version set. (A replica read transaction whose
		// snapshot predates the horizon may stop seeing already-dead versions
		// — the primary made the same call when it chose the horizon.)
		a.db.applyVacuumHorizon(horizon)
	}
	return maxTS, nil
}

// applyLive applies one redo entry on a live replica under the apply
// transaction applyTxn. Unlike applyRedo it takes table write locks, stamps
// transaction ids for MVCC invisibility of in-flight records, and maintains
// the primary-key index in place.
func (db *DB) applyLive(ix *replayIndex, applyTxn int64, e redoEntry, maxTS *uint64) error {
	switch e.kind {
	case walCreate, walDrop, walCreateIndex, walDropIndex:
		// Applied DDL changes the catalog under live readers: invalidate any
		// plans cached against the old shape.
		db.bumpDDLEpoch()
	}
	switch e.kind {
	case walCreate:
		db.mu.Lock()
		if _, exists := db.tables[e.table]; !exists {
			db.tables[e.table] = newTable(e.table, e.schema)
		}
		db.mu.Unlock()
		return nil
	case walDrop:
		db.mu.Lock()
		delete(db.tables, e.table)
		db.mu.Unlock()
		delete(ix.tables, e.table)
		return nil
	case walInsert:
		t, err := db.lookupTable(e.table)
		if err != nil {
			return fmt.Errorf("replication apply: insert into %q: %w", e.table, err)
		}
		t.mu.Lock()
		defer t.mu.Unlock()
		m := ix.forTable(t)
		key := TupleRef{Row: e.id, Version: e.version}
		if _, exists := m[key]; exists {
			return nil // already applied (re-shipped segment)
		}
		r := &storedRow{id: e.id, vals: e.vals, version: e.version, proc: e.proc, stmt: e.stmt, txnID: applyTxn}
		if err := t.insertRow(r); err != nil {
			return fmt.Errorf("replication apply: table %s: %w", t.Name, err)
		}
		m[key] = r
		if e.version > *maxTS {
			*maxTS = e.version
		}
		raiseTo(&db.nextRow, uint64(e.id))
		for {
			cur := db.nextStmt.Load()
			if e.stmt <= cur || db.nextStmt.CompareAndSwap(cur, e.stmt) {
				break
			}
		}
		return nil
	case walCreateIndex:
		t, err := db.lookupTable(e.table)
		if err != nil {
			return fmt.Errorf("replication apply: create index on %q: %w", e.table, err)
		}
		t.mu.Lock()
		defer t.mu.Unlock()
		if t.findIndex(e.idxName) != nil {
			return nil // already applied (bootstrap snapshot carried the def)
		}
		pos := t.Schema.ColumnIndex(e.idxCol)
		if pos < 0 {
			return fmt.Errorf("replication apply: index %q: table %q has no column %q", e.idxName, e.table, e.idxCol)
		}
		ix2 := newTableIndex(e.idxName, e.idxCol, pos, e.idxKind)
		ix2.rebuild(t.rows)
		t.addIndex(ix2)
		return nil
	case walDropIndex:
		t, err := db.lookupTable(e.table)
		if err != nil {
			return nil // table dropped by a later record; nothing to undo
		}
		t.mu.Lock()
		defer t.mu.Unlock()
		t.removeIndex(e.idxName)
		return nil
	case walEnd:
		t, err := db.lookupTable(e.table)
		if err != nil {
			return fmt.Errorf("replication apply: end mark on %q: %w", e.table, err)
		}
		t.mu.Lock()
		defer t.mu.Unlock()
		if r, ok := ix.forTable(t)[TupleRef{Row: e.id, Version: e.version}]; ok && r.end == 0 {
			r.end = e.end
			r.endTxn = applyTxn
			t.liveRows.Add(-1)
			t.deadVersions.Add(1)
			if pk := t.Schema.PrimaryKeyIndex(); pk >= 0 {
				if key := r.vals[pk].GroupKey(); t.pkIndex[key] == r {
					delete(t.pkIndex, key)
				}
			}
		}
		// A missing version is fine: it may predate the bootstrap snapshot,
		// which only carries versions still visible at the cut.
		if e.end > *maxTS {
			*maxTS = e.end
		}
		return nil
	}
	return fmt.Errorf("replication apply: unknown redo kind %d", e.kind)
}
