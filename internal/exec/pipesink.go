package exec

import (
	"repro/internal/logical"
	"repro/internal/types"
	"repro/internal/vec"
)

// The pipeline sink: scalar (no GROUP BY) aggregation accepts a fused
// chain's pushed per-morsel sub-batches directly rather than pulling
// through the BatchIterator facade. It is the one blocking operator that
// does: a scalar aggregate's per-morsel partial is a few states, so folding
// on the worker saves shipping every batch. It consumes morsel results
// strictly in morsel order and charges rows exactly where the serial
// aggregation does. Every other pipeline breaker, sort included, drains the
// morsel-parallel chain (pipelineIter) instead.

// buildScalarAggSink compiles a scalar aggregation over a fusible chain into
// a push pipeline: each worker runs the fused chain over its claimed morsel
// and folds the surviving rows into per-worker partial aggregate states.
// Order-insensitive aggregates (COUNT, MIN, MAX, integer SUM) merge partials
// in fixed morsel order; order-sensitive ones (AVG, float SUM) instead ship
// their masked argument values and replay them serially in morsel order, so
// float sums stay bit-for-bit identical to the serial accumulation.
func (ex *executor) buildScalarAggSink(g *logical.GroupBy) (BatchIterator, bool, error) {
	cs := ex.execStack(g.Input)
	if cs.scan == nil {
		return nil, false, nil
	}
	// Validate chain and aggregate compilation before committing to the
	// scan. The spec and the validation worker both survive: every execution
	// worker shares the spec's mask factorings, and the validation worker
	// becomes worker 0 (or lends its stages to the one-shard groupByIter
	// that runs a one-morsel scan).
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
		it, err := ex.newGroupByIter(ex.pullStages(&scanIter{src: src, parts: parts}, first.stages, ex.opts.BatchSize), in, nil, 1)
		return it, true, err
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
	// A one-shard groupByIter creates its one scalar group on the first
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
