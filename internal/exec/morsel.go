package exec

import (
	"repro/internal/scanshare"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/vec"
)

// A morsel is the unit of parallel scan work: a run of consecutive
// partitions totalling roughly morselTarget rows. Workers claim morsels
// from a shared counter (morsel-driven scheduling), decode their column
// chunks into batches, and hand them to the consumer through per-morsel
// slots so the output order — and therefore every downstream result — is
// identical to the serial scan's partition order.
type morsel struct {
	parts []*storage.Partition
}

// buildMorsels groups consecutive partitions until each group holds at
// least target rows. Grouping keeps per-morsel scheduling overhead amortized
// when tables have many small partitions (date-partitioned facts).
func buildMorsels(parts []*storage.Partition, target int) []morsel {
	var out []morsel
	var cur []*storage.Partition
	rows := 0
	for _, p := range parts {
		cur = append(cur, p)
		rows += p.NumRows
		if rows >= target {
			out = append(out, morsel{parts: cur})
			cur, rows = nil, 0
		}
	}
	if len(cur) > 0 {
		out = append(out, morsel{parts: cur})
	}
	return out
}

// morselTarget picks the morsel size: large enough to amortize channel and
// decode-setup overhead (at least one batch), small enough to keep every
// worker busy (~4 morsels per worker when the table is large).
func morselTarget(parts []*storage.Partition, batchSize, parallelism int) int {
	total := 0
	for _, p := range parts {
		total += p.NumRows
	}
	target := total / (parallelism * 4)
	if target < batchSize {
		target = batchSize
	}
	return target
}

// partitionBatches decodes one partition's columns in a single pass each —
// through the scan-share cache when sharing is on — and slices the vectors
// into dense batches (zero-copy subslices).
func partitionBatches(p *storage.Partition, cols []string, batchSize int, share *scanshare.Manager, m *Metrics, dst []*vec.Batch) ([]*vec.Batch, error) {
	decoded, err := decodePartition(p, cols, share, m)
	if err != nil {
		return nil, err
	}
	for lo := 0; lo < p.NumRows; lo += batchSize {
		hi := lo + batchSize
		if hi > p.NumRows {
			hi = p.NumRows
		}
		bcols := make([][]types.Value, len(decoded))
		for c := range decoded {
			bcols[c] = decoded[c][lo:hi]
		}
		dst = append(dst, vec.NewDense(bcols, hi-lo))
	}
	return dst, nil
}

// morselSource is everything a worker needs to turn a scan leaf's partitions
// into batches: the column list and batch size, the run's metrics and CPU
// pool, the store's scan-share cache (nil when sharing is off) and the leaf's
// skip controller (nil under Options.NoSkip; its methods are nil-safe).
// scanSource assembles one per built leaf, and both scan drives — the
// serial scanIter and the morsel-parallel runChain — decode through it.
type morselSource struct {
	cols      []string
	batchSize int
	m         *Metrics
	pool      *WorkerPool
	share     *scanshare.Manager
	ctrl      *skipController
}

// runChain is the push loop every morsel-parallel consumer shares: decode
// each partition (or prune it and recharge its rows as-if-scanned), repack
// the decoded batches to the nominal size, push each through the fused
// stages, and hand every surviving output batch to emit. A zero-stage chain
// (a bare scan) skips the repack: its decode batches pass through uncopied,
// so they keep aliasing the decoded vectors instead of duplicating them.
// Decode, stages and emit are the CPU work and run under one shared pool
// slot, released on return, so scan leaves, chains and the blocking
// operators above them together never exceed Parallelism concurrent
// workers.
//
// Every charge — scan output, per-stage inputs, the skip recharge — is taken
// here, worker-side: the sums are order-independent and chains never run
// morsel-parallel under LIMIT (executor.noPush), so every consumer drains
// totally and only the totals matter, not the stream position. Consumers
// add their own input charge in emit.
func (src *morselSource) runChain(parts []*storage.Partition, stages []pipeStage, emit func(*vec.Batch)) error {
	src.pool.acquire()
	defer src.pool.release()
	var co batchCoalescer
	if len(stages) > 0 {
		co.target = src.batchSize
	}
	push := func(cb *vec.Batch) {
		src.m.addProcessed(int64(cb.Len()))
		if len(stages) > 0 {
			src.m.addPipelineBatches(1)
		}
		if ob := runStages(stages, cb, src.m); ob != nil {
			emit(ob)
		}
	}
	var decoded []*vec.Batch
	var err error
	for _, p := range parts {
		if src.ctrl.shouldPrune(p) {
			src.ctrl.recharge(int64(p.NumRows))
			continue
		}
		if decoded, err = partitionBatches(p, src.cols, src.batchSize, src.share, src.m, decoded[:0]); err != nil {
			return err
		}
		for _, b := range decoded {
			if cb := co.add(b); cb != nil {
				push(cb)
			}
		}
	}
	if cb := co.flush(); cb != nil {
		push(cb)
	}
	return nil
}

// morselResult is one morsel's delivery: its chain output batches in order.
type morselResult struct {
	batches []*vec.Batch
	err     error
}
