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
// scanSource assembles one per built leaf, and every scan form — serial,
// morsel-parallel, fused chain — decodes through it.
type morselSource struct {
	cols      []string
	batchSize int
	m         *Metrics
	pool      *workerPool
	share     *scanshare.Manager
	ctrl      *skipController
}

// runChain is the push loop every fused-chain consumer shares: decode each
// partition (or prune it and recharge its rows as-if-scanned), repack the
// decoded batches to the nominal size, push each through the fused stages,
// and hand every surviving output batch to emit. Decode, stages and emit
// are the CPU work and run under one shared pool slot, released on return,
// so scan leaves, chains and the blocking operators above them together
// never exceed Parallelism concurrent workers.
//
// Every charge — scan output, per-stage inputs, the skip recharge — is taken
// here, worker-side: the sums are order-independent and chains never run
// under LIMIT (executor.noPush), so every consumer drains totally and only
// the totals matter, not the stream position. Consumers add their own input
// charge in emit.
func (src *morselSource) runChain(parts []*storage.Partition, stages []pipeStage, emit func(*vec.Batch)) error {
	src.pool.acquire()
	defer src.pool.release()
	co := batchCoalescer{target: src.batchSize}
	push := func(cb *vec.Batch) {
		src.m.addProcessed(int64(cb.Len()))
		src.m.addPipelineBatches(1)
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

// morselItem is one in-order element of a scanned morsel: a decoded batch,
// or a marker for a pruned partition (b nil, skip its row count). Markers
// keep the as-if-scanned RowsProcessed recharge at the exact stream
// position the partition's batches would have occupied, which is what
// makes pruning invisible to LIMIT truncation.
type morselItem struct {
	b    *vec.Batch
	skip int64
}

// morselResult is one morsel's delivery: a fused chain's output batches, or
// the scan leaf's in-order items.
type morselResult struct {
	batches []*vec.Batch
	items   []morselItem
	err     error
}

// parallelScanIter is the morsel-parallel scan leaf. Workers race down the
// morsel list under orderedRun's discipline — strict morsel-order delivery,
// a bound on decoded-but-unconsumed morsels so a fast scan cannot buffer the
// whole table, and a close() that releases the pool even when the consumer
// stops early (LIMIT) or the query errors. Unlike a fused chain the leaf may
// sit under LIMIT, so workers only decide prunes; the consumer applies the
// recharge at the marker's stream position.
type parallelScanIter struct {
	run     *orderedRun[morselResult]
	src     *morselSource
	morsels []morsel

	cur    []morselItem
	curIdx int
}

func newParallelScan(src *morselSource, morsels []morsel, workers int) *parallelScanIter {
	return &parallelScanIter{run: newOrderedRun[morselResult](len(morsels), workers), src: src, morsels: morsels}
}

func (it *parallelScanIter) work(_, i int) morselResult {
	src := it.src
	// The decode is the CPU work and runs under a pool slot, like runChain.
	src.pool.acquire()
	defer src.pool.release()
	var items []morselItem
	for _, p := range it.morsels[i].parts {
		if src.ctrl.shouldPrune(p) {
			items = append(items, morselItem{skip: int64(p.NumRows)})
			continue
		}
		batches, err := partitionBatches(p, src.cols, src.batchSize, src.share, src.m, nil)
		if err != nil {
			return morselResult{err: err}
		}
		for _, b := range batches {
			items = append(items, morselItem{b: b})
		}
	}
	return morselResult{items: items}
}

func (it *parallelScanIter) NextBatch() (*vec.Batch, error) {
	it.run.start(it.work)
	for {
		if it.curIdx < len(it.cur) {
			item := it.cur[it.curIdx]
			it.curIdx++
			if item.b == nil {
				// Pruned partition: recharge exactly where its batches would
				// have been consumed.
				it.src.ctrl.recharge(item.skip)
				continue
			}
			it.src.m.addProcessed(int64(item.b.Len()))
			return item.b, nil
		}
		res, ok := it.run.recv()
		if !ok {
			return nil, nil
		}
		if res.err != nil {
			return nil, res.err
		}
		it.cur, it.curIdx = res.items, 0
	}
}
