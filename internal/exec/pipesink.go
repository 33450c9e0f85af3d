package exec

import (
	"sync"
	"sync/atomic"

	"repro/internal/logical"
	"repro/internal/memctl"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/vec"
)

// Pipeline sinks: blocking operators that accept a fused chain's pushed
// per-morsel sub-batches directly rather than pulling through the
// BatchIterator facade. Two sinks exist — scalar (no GROUP BY) aggregation
// and sort-run generation. Both preserve first-seen ordering by consuming
// morsel results strictly in morsel order, charge rows exactly where the
// pull operators do, and keep memctl accounting and the spill paths intact.

// buildScalarAggSink compiles a scalar aggregation over a fusible chain into
// a push pipeline: each worker runs the fused chain over its claimed morsel
// and folds the surviving rows into per-worker partial aggregate states.
// Order-insensitive aggregates (COUNT, MIN, MAX, integer SUM) merge partials
// in fixed morsel order; order-sensitive ones (AVG, float SUM) instead ship
// their masked argument values and replay them serially in morsel order, so
// float sums stay bit-for-bit identical to the serial accumulation.
func (ex *executor) buildScalarAggSink(g *logical.GroupBy) (BatchIterator, bool, error) {
	cs, ok := ex.execChain(g.Input)
	if !ok {
		return nil, false, nil
	}
	// Validate chain and aggregate compilation before committing to the
	// scan. The spec and the validation worker both survive: every execution
	// worker shares the spec's mask factorings, and the validation worker
	// becomes worker 0 (or lends its stages to the serial fallback).
	in := newAggInputSpec(g.Aggs, layoutOf(g.Input), ex.opts.NaiveMasks)
	spec := &scalarWorkerSpec{cs: cs, in: in}
	first, err := spec.newWorker()
	if err != nil {
		return nil, true, err
	}
	parts, src, morsels, err := ex.openChain(cs)
	if err != nil {
		return nil, true, err
	}
	if len(morsels) <= 1 {
		acc, err := newGroupAccumulator(in, nil, ex.tracker, ex.mempool.SpillDir())
		if err != nil {
			return nil, true, err
		}
		return &groupByIter{
			in: ex.serialChain(parts, src, first.stages), acc: acc, scalar: true,
			batchSize: ex.opts.BatchSize, m: ex.metrics,
		}, true, nil
	}
	run := newOrderedRun[scalarMorselOut](len(morsels), ex.opts.Parallelism)
	workers, err := perWorker(run.workers, first, spec.newWorker)
	if err != nil {
		return nil, true, err
	}
	ex.onClose(run.close)
	return &scalarAggIter{run: run, src: src, morsels: morsels, workers: workers, aggs: in.aggs.aggs}, true, nil
}

// scalarWorker is one worker's chain stages plus its aggregate input
// (evaluators own scratch buffers and are bound to one goroutine).
type scalarWorker struct {
	*aggInput
	stages []pipeStage
}

// scalarWorkerSpec builds scalarWorkers for one sink, sharing the
// worker-independent analysis: the chain's filter factorings live on cs and
// the aggregate masks' on in. Workers are constructed sequentially on the
// coordinator goroutine, so neither cache needs a lock.
type scalarWorkerSpec struct {
	cs *chainSpec
	in *aggInputSpec
}

func (sp *scalarWorkerSpec) newWorker() (*scalarWorker, error) {
	stages, err := newPipeStages(sp.cs)
	if err != nil {
		return nil, err
	}
	in, err := sp.in.instantiate()
	if err != nil {
		return nil, err
	}
	return &scalarWorker{aggInput: in, stages: stages}, nil
}

// sensChunk is one batch's shipped argument values for an order-sensitive
// aggregate, reduced to exactly what aggState.add consumes for SUM/AVG: the
// float contribution (float64(v.I) for integer-kind values — converted
// worker-side, so the replayed additions are the very same floats the serial
// order would add) and the null flag. Chunks avoid re-growing one large
// slice batch after batch.
type sensChunk struct {
	f    []float64
	null []bool
}

// scalarMorselOut is one morsel's partial aggregation: merged states for the
// insensitive aggregates, shipped argument chunks for the sensitive ones.
type scalarMorselOut struct {
	states []aggState
	sens   [][]sensChunk
	rows   int64
	err    error
}

// consume folds one chain-output batch into the morsel's partials: each
// aggregate's masked rows fold into its partial state, or — for the
// order-sensitive ones — ship as values copied out of evaluator scratch.
func (sw *scalarWorker) consume(b *vec.Batch, out *scalarMorselOut) {
	sw.evalMasks(b)
	for ai := range sw.aggs.aggs {
		sub, _, vals, ok := sw.input(ai, b)
		if !ok {
			continue
		}
		if a := &sw.aggs.aggs[ai]; !a.sensitive {
			out.states[ai].addAll(a.agg.Fn, vals, sub.Len())
			continue
		}
		ck := sensChunk{f: make([]float64, len(vals)), null: make([]bool, len(vals))}
		for j, v := range vals {
			if v.Null {
				ck.null[j] = true
			} else if v.Kind == types.KindFloat64 {
				ck.f[j] = v.F
			} else {
				ck.f[j] = float64(v.I)
			}
		}
		out.sens[ai] = append(out.sens[ai], ck)
	}
}

// scalarAggIter drives the scalar-aggregation sink: morsel-ordered partial
// delivery, deterministic merge, one output row.
type scalarAggIter struct {
	run     *orderedRun[scalarMorselOut]
	src     *morselSource
	morsels []morsel
	workers []*scalarWorker
	aggs    []compiledAgg

	built bool
	out   *vec.Batch
}

func (it *scalarAggIter) work(w, i int) scalarMorselOut {
	sw := it.workers[w]
	out := scalarMorselOut{
		states: make([]aggState, len(it.aggs)),
		sens:   make([][]sensChunk, len(it.aggs)),
	}
	out.err = it.src.runChain(it.morsels[i].parts, sw.stages, func(ob *vec.Batch) {
		it.src.m.addProcessed(int64(ob.Len())) // the aggregation's input charge
		out.rows += int64(ob.Len())
		sw.consume(ob, &out)
	})
	return out
}

func (it *scalarAggIter) NextBatch() (*vec.Batch, error) {
	if it.built {
		b := it.out
		it.out = nil
		return b, nil
	}
	it.built = true
	it.run.start(it.work)
	final := make([]aggState, len(it.aggs))
	var totalRows int64
	for {
		res, ok := it.run.recv()
		if !ok {
			break
		}
		if res.err != nil {
			it.run.close()
			return nil, res.err
		}
		totalRows += res.rows
		for ai := range final {
			if it.aggs[ai].sensitive {
				// The replay is aggState.add for SUM/AVG unrolled over the
				// shipped chunks: identical additions in identical order.
				st := &final[ai]
				for _, ck := range res.sens[ai] {
					for j := range ck.f {
						if ck.null[j] {
							continue
						}
						st.count++
						st.seen = true
						st.sumF += ck.f[j]
					}
				}
			} else {
				final[ai].merge(it.aggs[ai].agg.Fn, &res.states[ai])
			}
		}
	}
	it.run.close()
	// The serial accumulator creates its one scalar group on the first
	// consumed row and charges it to HashRows; empty input emits the default
	// row uncounted.
	if totalRows > 0 {
		it.src.m.addHashRows(1)
	}
	for _, sw := range it.workers {
		it.src.m.addMaskPrefixHits(sw.masks.hits())
	}
	bl := vec.NewBuilder(len(it.aggs), 1)
	row := make(Row, len(it.aggs))
	for ai := range it.aggs {
		row[ai] = final[ai].result(it.aggs[ai].agg)
	}
	bl.Append(row)
	return bl.Flush(), nil
}

// buildSortRunSink compiles a sort over a fusible chain into a push
// pipeline: each worker runs the fused chain over its claimed morsel and
// buffers the surviving rows under a memctl reservation, cutting spill runs
// when the pool sheds memory; at morsel end the leftover stable-sorts into a
// final in-memory run. Emission k-way merges every run in (morsel, cut)
// order — each run is a contiguous input range and ties break toward the
// earliest, so the merged order is exactly one global stable sort.
func (ex *executor) buildSortRunSink(s *logical.Sort) (BatchIterator, bool, error) {
	cs, ok := ex.execChain(s.Input)
	if !ok {
		return nil, false, nil
	}
	// Validate stage and key compilation before committing to the scan.
	stages, err := newPipeStages(cs)
	if err != nil {
		return nil, true, err
	}
	evs, err := sortKeyEvs(s)
	if err != nil {
		return nil, true, err
	}
	parts, src, morsels, err := ex.openChain(cs)
	if err != nil {
		return nil, true, err
	}
	if len(morsels) <= 1 {
		it, err := ex.newSortIter(s, ex.serialChain(parts, src, stages))
		return it, true, err
	}
	run := newOrderedRun[error](len(morsels), ex.opts.Parallelism)
	wstages, err := perWorker(run.workers, stages, func() ([]pipeStage, error) { return newPipeStages(cs) })
	if err != nil {
		return nil, true, err
	}
	width := len(s.Input.Schema())
	sink := &sortRunSink{
		width: width, spillDir: ex.mempool.SpillDir(), tracker: ex.tracker,
		byMorsel: make(map[int][]runRef),
	}
	wstates := make([]*sortWorkerState, run.workers)
	for w := range wstates {
		wevs, err := sortKeyEvs(s)
		if err != nil {
			return nil, true, err
		}
		wstates[w] = &sortWorkerState{sink: sink, evs: wevs, keys: s.Keys, width: width}
	}
	ex.onClose(run.close)
	ex.onClose(sink.closeRuns)
	return &sortRunIter{
		run: run, src: src, morsels: morsels, width: width, keys: s.Keys, evs: evs,
		tracker: ex.tracker, wstages: wstages, wstates: wstates, sink: sink,
	}, true, nil
}

// writeSortedRun writes already-sorted rows out as one spill run.
func writeSortedRun(spillDir string, width int, rows []Row) (*storage.SpillFile, error) {
	w, err := storage.NewSpillWriter(spillDir, width)
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		if err := w.Append(row); err != nil {
			w.Abort()
			return nil, err
		}
	}
	return w.Finish()
}

// runRef is one sorted run: a spill file or in-memory rows (with the rows'
// reservation, released per row as the merge emits them).
type runRef struct {
	file     *storage.SpillFile
	rows     []Row
	resident int64
}

// sortRunSink collects finished morsels' runs. It is itself Spillable:
// under pressure the pool can convert any collected in-memory run — already
// sorted — into a file run in place.
type sortRunSink struct {
	width    int
	spillDir string
	tracker  *memctl.Tracker

	mu       sync.Mutex
	resident int64
	byMorsel map[int][]runRef
	files    []*storage.SpillFile // every run file ever created, for close
	sealed   bool
}

// SpillableBytes is called with the pool lock held; it must not take sk.mu.
func (sk *sortRunSink) SpillableBytes() int64 { return atomic.LoadInt64(&sk.resident) }

func (sk *sortRunSink) Label() string { return opSort }

func (sk *sortRunSink) Spill() (int64, error) {
	sk.mu.Lock()
	defer sk.mu.Unlock()
	if sk.sealed {
		return 0, nil
	}
	var freed int64
	var firstErr error
	for _, srcs := range sk.byMorsel {
		for ci := range srcs {
			src := &srcs[ci]
			if src.rows == nil {
				continue
			}
			f, err := writeSortedRun(sk.spillDir, sk.width, src.rows)
			if err != nil {
				firstErr = err
				break
			}
			sk.files = append(sk.files, f)
			sk.tracker.AddSpill(opSort, f.Bytes(), 1)
			freed += src.resident
			atomic.AddInt64(&sk.resident, -src.resident)
			src.file, src.rows, src.resident = f, nil, 0
		}
		if firstErr != nil {
			break
		}
	}
	if freed > 0 {
		sk.tracker.Release(opSort, freed)
	}
	return freed, firstErr
}

func (sk *sortRunSink) seal() {
	sk.mu.Lock()
	sk.sealed = true
	sk.mu.Unlock()
}

func (sk *sortRunSink) addFile(f *storage.SpillFile) {
	sk.mu.Lock()
	sk.files = append(sk.files, f)
	sk.mu.Unlock()
}

func (sk *sortRunSink) closeRuns() {
	sk.mu.Lock()
	defer sk.mu.Unlock()
	for _, f := range sk.files {
		f.Close()
	}
}

// sortWorkerState buffers one worker's in-flight morsel rows. Spillable:
// the pool can cut the buffered prefix into a sorted run mid-morsel (runs
// stay contiguous input ranges, in cut order).
type sortWorkerState struct {
	sink  *sortRunSink
	evs   []*evaluator
	keys  []logical.SortKey
	width int

	mu       sync.Mutex
	buf      []Row
	resident int64
	runs     []runRef
}

// SpillableBytes is called with the pool lock held; it must not take ws.mu.
func (ws *sortWorkerState) SpillableBytes() int64 { return atomic.LoadInt64(&ws.resident) }

func (ws *sortWorkerState) Label() string { return opSort }

func (ws *sortWorkerState) Spill() (int64, error) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if len(ws.buf) == 0 {
		return 0, nil
	}
	sortRowsStable(ws.buf, ws.evs, ws.keys)
	f, err := writeSortedRun(ws.sink.spillDir, ws.width, ws.buf)
	if err != nil {
		return 0, err
	}
	ws.sink.addFile(f)
	ws.runs = append(ws.runs, runRef{file: f})
	freed := ws.resident
	atomic.StoreInt64(&ws.resident, 0)
	ws.buf = nil
	ws.sink.tracker.Release(opSort, freed)
	ws.sink.tracker.AddSpill(opSort, f.Bytes(), 1)
	return freed, nil
}

// addBatch gathers one chain-output batch into the worker's buffer, in
// bounded chunks with no lock held during Reserve — the pool may pick this
// very worker (or the sink) as the spill victim mid-batch.
func (ws *sortWorkerState) addBatch(b *vec.Batch) error {
	n := b.Len()
	chunk := make([]Row, 0, n)
	var bytes int64
	flush := func() error {
		if len(chunk) == 0 {
			return nil
		}
		if err := ws.sink.tracker.Reserve(opSort, bytes); err != nil {
			return err
		}
		ws.mu.Lock()
		ws.buf = append(ws.buf, chunk...)
		atomic.AddInt64(&ws.resident, bytes)
		ws.mu.Unlock()
		chunk, bytes = chunk[:0:0], 0
		return nil
	}
	for i := 0; i < n; i++ {
		row := make(Row, ws.width)
		b.Gather(i, row)
		chunk = append(chunk, row)
		bytes += rowMemBytes(row)
		if bytes >= reserveChunkBytes {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return flush()
}

// finishMorsel stable-sorts the in-memory leftover as the morsel's final
// run and hands every run to the sink (holding ws.mu throughout, so a
// concurrent Spill can never observe a half-moved morsel). The leftover's
// reservation transfers to the sink.
func (ws *sortWorkerState) finishMorsel(mi int) {
	ws.mu.Lock()
	srcs := ws.runs
	ws.runs = nil
	if len(ws.buf) > 0 {
		sortRowsStable(ws.buf, ws.evs, ws.keys)
		srcs = append(srcs, runRef{rows: ws.buf, resident: ws.resident})
	}
	moved := ws.resident
	ws.buf = nil
	atomic.StoreInt64(&ws.resident, 0)
	if len(srcs) > 0 {
		ws.sink.deposit(mi, srcs, moved)
	}
	ws.mu.Unlock()
}

// abandonMorsel clears the worker state after a mid-morsel error so the
// worker's next morsel cannot mix rows; the reservation is refunded. Run
// files already created are closed by the sink at query close.
func (ws *sortWorkerState) abandonMorsel() {
	ws.mu.Lock()
	freed := ws.resident
	ws.buf = nil
	ws.runs = nil
	atomic.StoreInt64(&ws.resident, 0)
	if freed > 0 {
		ws.sink.tracker.Release(opSort, freed)
	}
	ws.mu.Unlock()
}

func (sk *sortRunSink) deposit(mi int, srcs []runRef, resident int64) {
	sk.mu.Lock()
	sk.byMorsel[mi] = srcs
	atomic.AddInt64(&sk.resident, resident)
	sk.mu.Unlock()
}

// sortRunIter drives the sort-run sink: parallel run generation, then a
// k-way merge over every run in (morsel, cut) order.
type sortRunIter struct {
	run     *orderedRun[error]
	src     *morselSource
	morsels []morsel
	width   int
	keys    []logical.SortKey
	evs     []*evaluator
	tracker *memctl.Tracker
	wstages [][]pipeStage
	wstates []*sortWorkerState
	sink    *sortRunSink

	built bool
	merge *sortMerger
}

func (it *sortRunIter) work(w, i int) error {
	ws := it.wstates[w]
	// The chain's output is only collected under runChain's pool slot; the
	// gather below runs after it is released, because its Reserve calls may
	// block on spills and must never hold a slot.
	var out []*vec.Batch
	err := it.src.runChain(it.morsels[i].parts, it.wstages[w], func(ob *vec.Batch) {
		it.src.m.addProcessed(int64(ob.Len())) // the sort's input charge
		out = append(out, ob)
	})
	if err != nil {
		return err
	}
	for _, ob := range out {
		if err := ws.addBatch(ob); err != nil {
			ws.abandonMorsel()
			return err
		}
	}
	ws.finishMorsel(i)
	return nil
}

func (it *sortRunIter) NextBatch() (*vec.Batch, error) {
	if !it.built {
		if err := it.build(); err != nil {
			return nil, err
		}
		it.built = true
	}
	return it.merge.NextBatch()
}

func (it *sortRunIter) build() error {
	for _, ws := range it.wstates {
		it.tracker.Register(ws)
	}
	it.tracker.Register(it.sink)
	it.run.start(it.work)
	var firstErr error
	for {
		err, ok := it.run.recv()
		if !ok {
			break
		}
		if err != nil {
			firstErr = err
			break
		}
	}
	it.run.close()
	// Unregister before emission: the merge's consumers may reserve memory,
	// and those reservations must never route a spill into sealed state.
	for _, ws := range it.wstates {
		it.tracker.Unregister(ws)
	}
	it.tracker.Unregister(it.sink)
	it.sink.seal()
	if firstErr != nil {
		return firstErr
	}
	var cursors []*sortRunCursor
	it.sink.mu.Lock()
	for mi := 0; mi < len(it.morsels); mi++ {
		for _, src := range it.sink.byMorsel[mi] {
			if src.file != nil {
				cursors = append(cursors, &sortRunCursor{file: src.file, rd: src.file.NewReader(), width: it.width})
			} else {
				cursors = append(cursors, &sortRunCursor{rows: src.rows, residual: src.resident, tracker: it.tracker})
			}
		}
	}
	it.sink.mu.Unlock()
	for _, c := range cursors {
		if err := c.advance(it.evs); err != nil {
			return err
		}
	}
	it.merge = &sortMerger{
		cursors: cursors, evs: it.evs, keys: it.keys,
		width: it.width, batchSize: it.src.batchSize,
	}
	return nil
}
