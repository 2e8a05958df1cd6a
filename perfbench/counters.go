package main

import (
	"runtime"

	"ldv/internal/obs"
)

// counters is a point-in-time reading of what the program already
// publishes through obs.Default(), plus the Go runtime's allocation and GC
// totals. Layer counts are deltas between two readings taken around the
// section being attributed.
type counters struct {
	snap  *obs.Snapshot
	alloc uint64
	gcs   uint32
}

func readCounters() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return counters{snap: obs.Default().Snapshot(), alloc: ms.TotalAlloc, gcs: ms.NumGC}
}

// delta is how much counter name grew from a to b.
func delta(a, b counters, name string) float64 {
	return float64(b.snap.Counter(name) - a.snap.Counter(name))
}

// histDelta is how many observations histogram name gained from a to b and
// their summed value.
func histDelta(a, b counters, name string) (count, sum float64) {
	ha, hb := a.snap.Histogram(name), b.snap.Histogram(name)
	return float64(hb.Count - ha.Count), float64(hb.Sum - ha.Sum)
}

// liveHeapMB forces a collection and reports the live heap. The second
// collection frees what the first only moved to sync.Pool victim caches.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// setRuntimeLayer fills the Go runtime metrics for ops operations run
// between a and b.
func (r *report) setRuntimeLayer(a, b counters, ops int) {
	r.set("go.alloc_bytes_per_op", ratio(float64(b.alloc-a.alloc), float64(ops)))
	r.set("go.gc_per_kop", ratio(float64(b.gcs-a.gcs)*1000, float64(ops)))
}

// setEngineCounters fills the plan, lock and WAL layer metrics for ops
// operations run between a and b. A commit that wrote anything appends
// exactly one WAL record, so wal.appends counts the commits the WAL saw.
func (r *report) setEngineCounters(a, b counters, ops int) {
	hits, misses := delta(a, b, "plan.cache_hits"), delta(a, b, "plan.cache_misses")
	r.set("plan.cache_hit_ratio", ratio(hits, hits+misses))
	ix, full := delta(a, b, "plan.index_scans"), delta(a, b, "plan.full_scans")
	r.set("plan.index_scan_ratio", ratio(ix, ix+full))
	r.set("engine.lock_wait_us_per_op", ratio(delta(a, b, obs.WaitLockTable.NSMetric())/1e3, float64(ops)))

	commits := delta(a, b, "wal.appends")
	r.set("wal.bytes_per_commit", ratio(delta(a, b, "wal.bytes"), commits))
	r.set("wal.flushes_per_commit", ratio(delta(a, b, "wal.flushes"), commits))
	n, sum := histDelta(a, b, "wal.flush_ns")
	r.set("wal.flush_us", ratio(sum/1e3, n))
}
