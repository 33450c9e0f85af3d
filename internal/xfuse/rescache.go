package xfuse

import (
	"repro/internal/exec"
	"repro/internal/rescache"
	"repro/internal/types"
)

// This file joins shared execution to the semantic result cache
// (internal/rescache). Fused runs disable the executor-level cache hook
// (groupOptions zeroes ResultCacheBytes — a fused superset plan is not any
// member's sub-plan), and the runner instead interacts with the cache at
// member granularity: execute probes each batch member's whole plan before
// grouping, serving hits straight from cache with as-if-solo metrics, and
// the fused group runs offer each member's reconstructed result for
// admission afterwards, so a fused batch both consumes and feeds the same
// cache a solo run would.

// probeCache serves every live entry whose plan has a valid cached result
// and returns the members that still need execution. Misses keep their
// transaction (whose partition-set signature was snapshotted here, before
// the fused run enumerates partitions) on the entry for the offer after the
// group runs.
func (r *Runner) probeCache(live []*entry, batched int64) []*entry {
	if r.rcache == nil {
		return live
	}
	kept := live[:0]
	for _, e := range live {
		tx := r.rcache.Begin(e.plan, r.store)
		if tx == nil {
			kept = append(kept, e)
			continue
		}
		ent, ok := tx.Lookup()
		if !ok {
			e.rctx = tx
			kept = append(kept, e)
			continue
		}
		// Cached rows are shared and immutable; the client gets copies.
		rows := make([]exec.Row, len(ent.Rows))
		for i, row := range ent.Rows {
			rows[i] = append(exec.Row(nil), row...)
		}
		var m exec.Metrics
		m.Storage.BytesScanned = ent.Cost.BytesScanned
		m.Storage.RowsScanned = ent.Cost.RowsScanned
		m.RowsProcessed = ent.Cost.RowsProcessed
		m.HashRows = ent.Cost.HashRows
		m.ResultCache = exec.ResultCacheMetrics{Hits: 1, ServedBytes: ent.Bytes}
		m.SharedExec = exec.SharedExecMetrics{BatchedQueries: batched, FusedPlans: 1, WindowWaits: 1}
		e.res = &exec.Result{Columns: e.cl.outCols, Rows: rows, Metrics: m}
		close(e.done)
	}
	return kept
}

// offerResult proposes one member's fused-run output for cache admission
// and records the interaction (the probe's miss, any deferral, rejection or
// eviction) in the member's as-if-solo metrics. The capture decision is
// asked here rather than at probe time: only members that ran fused reach
// this point, and a member released to the solo path is decided by its own
// executor's probe, which would otherwise see its first miss twice. A
// deferred member copies and offers nothing. The offered cost is the
// member's stamped logical work, so a later hit replays exactly what a
// cold solo run would charge; rows are copied because cache entries must
// stay immutable while the member's result is handed to its client.
func offerResult(e *entry, m *exec.Metrics, rows []exec.Row) {
	if e.rctx == nil {
		return
	}
	m.ResultCache.Misses++
	if !e.rctx.Capture() {
		m.ResultCache.Deferred++
		return
	}
	cp := make([][]types.Value, len(rows))
	var bytes int64
	for i, row := range rows {
		cp[i] = append([]types.Value(nil), row...)
		bytes += rescache.RowBytes(cp[i])
	}
	cost := rescache.CostMetrics{
		BytesScanned:  m.Storage.BytesScanned,
		RowsScanned:   m.Storage.RowsScanned,
		RowsProcessed: m.RowsProcessed,
		HashRows:      m.HashRows,
	}
	admitted, evicted := e.rctx.Offer(cp, bytes, cost)
	if !admitted {
		m.ResultCache.AdmissionRejects++
	}
	m.ResultCache.EvictedBytes += evicted
}
