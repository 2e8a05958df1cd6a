package engine

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"

	"ldv/internal/sqlval"
)

// FuzzTableFile asserts the table-file decoder never panics on arbitrary
// bytes, allocates in proportion to its input whatever counts the input
// claims, and agrees with the encoder: a decoded table re-encodes into an
// image that decodes and re-encodes to itself.
func FuzzTableFile(f *testing.F) {
	db := NewDB(nil)
	for _, stmt := range []string{
		"CREATE TABLE t (k INT PRIMARY KEY, s TEXT, f FLOAT, d DATE, b BOOLEAN)",
		"CREATE INDEX t_s ON t (s)",
		"INSERT INTO t VALUES (1, 'one', 1.5, DATE '2015-04-13', TRUE)",
		"INSERT INTO t VALUES (2, NULL, -0.0, NULL, FALSE)",
		"UPDATE t SET s = 'uno' WHERE k = 1",
		"DELETE FROM t WHERE k = 2",
		"CREATE TABLE plain (x INT, y TEXT)",
		"INSERT INTO plain VALUES (7, ''), (NULL, 'seven')",
	} {
		if _, err := db.Exec(stmt, ExecOptions{Proc: "seed"}); err != nil {
			f.Fatal(err)
		}
	}
	for _, name := range db.TableNames() {
		tbl, err := db.lookupTable(name)
		if err != nil {
			f.Fatal(err)
		}
		image := encodeTable(tbl, db.takeSnapshot(0), 3)
		f.Add(image)
		f.Add(image[:len(image)/2])
	}
	f.Add([]byte(tableFileMagic))
	f.Add([]byte("garbage"))
	header := append([]byte(tableFileMagic), 1, 't', 1, 1, 'k', byte(sqlval.KindInt), 1)
	header = header[:len(header):len(header)] // each seed below appends its own copy
	f.Add(append(header, 0xff, 0xff, 0xff, 0xff, 0x0f))
	// 2048 rows fit in what is left at one byte a row, but not at the
	// minimum row size.
	f.Add(append(binary.AppendUvarint(header, 2048), make([]byte, 2048)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		lt, err := decodeTable(data)
		runtime.ReadMemStats(&after)
		// Every arena element is backed by at least one input byte, so the
		// decoder may allocate a bounded multiple of its input, never what
		// a count alone claims. Building the secondary indexes, the last
		// step of a successful decode, costs per index and row.
		limit := 64*uint64(len(data)) + 1<<14
		if err == nil {
			limit += 256 * uint64(len(lt.t.indexList())*len(lt.t.rows))
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > limit {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		image := encodeTable(lt.t, snapshot{ts: math.MaxUint64}, lt.horizon)
		again, err := decodeTable(image)
		if err != nil {
			t.Fatalf("re-encoded image does not decode: %v", err)
		}
		if reimage := encodeTable(again.t, snapshot{ts: math.MaxUint64}, again.horizon); !bytes.Equal(image, reimage) {
			t.Fatalf("image is not a fixpoint:\n%x\nvs\n%x", image, reimage)
		}
	})
}
