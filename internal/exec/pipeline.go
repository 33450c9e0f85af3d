package exec

import (
	"sync"
	"sync/atomic"

	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/vec"
)

// Push-based pipeline fusion. The plan's fusion rewrites merge logical
// operators, but a pull executor un-fuses them again at run time: every
// operator boundary is a virtual NextBatch call and every projection a dense
// batch materialization. This file compiles maximal non-blocking
// Scan→Filter→Project chains into one push-driven loop executed per morsel:
// the chain carries a survivor selection and column references through its
// stages, filters narrow the selection with the mask-family bitmap kernels,
// and projections alias pure column references instead of copying them.
// Pipeline breakers — aggregation finish, sort, join build, window, spool —
// keep their pull implementations and consume fused chains through the
// BatchIterator facade; the scalar-aggregation and sort-run sinks
// (pipesink.go) additionally accept pushed per-morsel sub-batches directly.
//
// Options.PullExec disables all of it, keeping the original pull path alive
// as the differential baseline.

// stageKind discriminates the fused stage forms.
type stageKind uint8

const (
	stageFilter stageKind = iota
	stageProject
)

// stageSpec is the compile-once description of one fused stage; per-worker
// instances are built from it because evaluators own scratch buffers and
// are bound to one goroutine. For filter stages the worker-independent
// analysis lives in the stage's mask-set spec and is shared by every
// worker — only the closure compilation repeats per worker.
type stageSpec struct {
	kind    stageKind
	cond    expr.Expr            // filter predicate
	assigns []logical.Assignment // project outputs
	layout  map[expr.ColumnID]int
	mask    *maskSetSpec // cond as a single-mask set; set by executor.execChain only
}

// chainSpec is a compiled fusible chain: a scan leaf (with any partition
// pruner peeled from the filter directly above it) plus the fused stages in
// source-to-sink order.
type chainSpec struct {
	scan   *logical.Scan
	prune  storage.Pruner
	stages []stageSpec
	// pruneCond / pruneCol describe the peeled prune predicate (nil when no
	// pruning) for fingerprinting: the chain-shape cache keys ScanPartitions
	// replays on them instead of re-walking partition metadata.
	pruneCond expr.Expr
	pruneCol  *expr.Column
}

// compileChain recognizes a maximal non-blocking chain rooted at op: any
// stack of Filter/Project operators over a Scan leaf. Partition-prune
// peeling matches the pull builder exactly (only the filter directly above
// the scan peels), so both execution models scan identical partitions.
func compileChain(op logical.Operator) (*chainSpec, bool) {
	var rev []stageSpec
	cur := op
	for {
		switch o := cur.(type) {
		case *logical.Scan:
			return finishChain(o, nil, nil, nil, rev), true
		case *logical.Filter:
			if scan, ok := o.Input.(*logical.Scan); ok {
				pruner, pruneCond, pruneCol, residual := splitPartitionPruneCond(scan, o.Cond)
				if pruner != nil {
					if residual != nil {
						rev = append(rev, stageSpec{kind: stageFilter, cond: residual, layout: layoutOf(scan)})
					}
					return finishChain(scan, pruner, pruneCond, pruneCol, rev), true
				}
			}
			rev = append(rev, stageSpec{kind: stageFilter, cond: o.Cond, layout: layoutOf(o.Input)})
			cur = o.Input
		case *logical.Project:
			rev = append(rev, stageSpec{kind: stageProject, assigns: o.Cols, layout: layoutOf(o.Input)})
			cur = o.Input
		default:
			return nil, false
		}
	}
}

func finishChain(scan *logical.Scan, prune storage.Pruner, pruneCond expr.Expr, pruneCol *expr.Column, rev []stageSpec) *chainSpec {
	cs := &chainSpec{scan: scan, prune: prune, pruneCond: pruneCond, pruneCol: pruneCol}
	for i := len(rev) - 1; i >= 0; i-- {
		cs.stages = append(cs.stages, rev[i])
	}
	return cs
}

// pipeStage is one instantiated fused stage: a filter's single-mask set, or
// a project, where projSrc[i] >= 0 aliases input column projSrc[i] zero-copy
// and -1 computes projFns[i].
type pipeStage struct {
	kind    stageKind
	mask    *maskSet
	projSrc []int
	projFns []batchFn
}

// execChain is compileChain for a chain this run will execute: filter
// stages additionally get the mask-set spec newPipeStages instantiates.
func (ex *executor) execChain(op logical.Operator) (*chainSpec, bool) {
	cs, ok := compileChain(op)
	if ok {
		for si := range cs.stages {
			if ss := &cs.stages[si]; ss.kind == stageFilter {
				ss.mask = newMaskSetSpec([]expr.Expr{ss.cond}, ss.layout, ex.opts.NaiveMasks)
			}
		}
	}
	return cs, ok
}

// newPipeStages instantiates the chain's stages for one goroutine. The
// per-worker calls for one chain all happen sequentially on the coordinator
// goroutine (the chain and sink constructors), which is what lets the
// mask-set specs cache their factoring without a lock.
func newPipeStages(cs *chainSpec) ([]pipeStage, error) {
	stages := make([]pipeStage, len(cs.stages))
	for si := range cs.stages {
		ss := &cs.stages[si]
		switch ss.kind {
		case stageFilter:
			mask, err := ss.mask.instantiate()
			if err != nil {
				return nil, err
			}
			stages[si] = pipeStage{kind: stageFilter, mask: mask}
		case stageProject:
			st := pipeStage{
				kind:    stageProject,
				projSrc: make([]int, len(ss.assigns)),
				projFns: make([]batchFn, len(ss.assigns)),
			}
			for i, a := range ss.assigns {
				if cr, ok := a.E.(*expr.ColumnRef); ok {
					if idx, ok2 := ss.layout[cr.Col.ID]; ok2 {
						st.projSrc[i] = idx
						continue
					}
				}
				st.projSrc[i] = -1
				fn, err := compileBatchExpr(a.E, ss.layout)
				if err != nil {
					return nil, err
				}
				st.projFns[i] = fn
			}
			stages[si] = st
		}
	}
	return stages, nil
}

// perWorker builds n goroutine-bound instances of a compiled template.
// Instance 0 is first — the one the caller compiled to surface expression
// errors before committing to the scan — so validation is not compiled
// twice; mk builds the rest.
func perWorker[T any](n int, first T, mk func() (T, error)) ([]T, error) {
	out := make([]T, n)
	out[0] = first
	for w := 1; w < n; w++ {
		var err error
		if out[w], err = mk(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// runStages pushes one source batch through the fused chain. Each stage
// charges its input rows exactly where the equivalent pull operator would,
// so RowsProcessed is byte-identical to the pull path on fully-consumed
// runs. Returns nil when a filter stage eliminates every row.
//
// Emitted batches never alias stage scratch (selections and computed
// columns are freshly allocated; aliased columns point into the decoded
// partition vectors), so a morsel's whole batch list stays valid while its
// worker reuses the stages on later batches.
func runStages(stages []pipeStage, b *vec.Batch, m *Metrics) *vec.Batch {
	for si := range stages {
		st := &stages[si]
		n := b.Len()
		m.addProcessed(int64(n))
		switch st.kind {
		case stageFilter:
			if b = narrow(b, st.mask.eval(b)[0]); b == nil {
				return nil
			}
		case stageProject:
			out := make([][]types.Value, len(st.projSrc))
			if b.Sel == nil {
				aliased := false
				for i, src := range st.projSrc {
					if src >= 0 {
						out[i] = b.Cols[src]
						aliased = true
						continue
					}
					col := make([]types.Value, n)
					st.projFns[i](b, col)
					out[i] = col
				}
				if aliased {
					// The pull projector would have copied every aliased
					// column into a fresh dense vector.
					m.addMaterializedSaved(1)
				}
				b = vec.NewDense(out, n)
			} else {
				// Survivors stay a selection: computed columns scatter into
				// physical positions, aliased columns ride along zero-copy,
				// and no dense gather happens at all.
				for i, src := range st.projSrc {
					if src >= 0 {
						out[i] = b.Cols[src]
						continue
					}
					tmp := make([]types.Value, n)
					st.projFns[i](b, tmp)
					col := make([]types.Value, b.N)
					for k, r := range b.Sel {
						col[r] = tmp[k]
					}
					out[i] = col
				}
				m.addMaterializedSaved(1)
				b = &vec.Batch{Cols: out, Sel: b.Sel, N: b.N}
			}
		}
	}
	return b
}

// buildPipeline tries to compile op as a push pipeline. ok=false means the
// operator is not a fusible chain root (or push execution is disabled) and
// the caller should fall through to the pull builders.
func (ex *executor) buildPipeline(op logical.Operator) (BatchIterator, bool, error) {
	if ex.opts.PullExec || ex.noPush > 0 {
		return nil, false, nil
	}
	switch op.(type) {
	case *logical.Filter, *logical.Project:
		// Only chain roots with at least one fusible stage; bare scans keep
		// the existing leaf builders, which are already materialization-free.
	default:
		return nil, false, nil
	}
	cs, ok := ex.execChain(op)
	if !ok || len(cs.stages) == 0 {
		return nil, false, nil
	}
	it, err := ex.newChainIterator(cs)
	if err != nil {
		return nil, false, err
	}
	return it, true, nil
}

// newChainIterator builds the physical form of a fused chain: morsel-
// parallel push workers when the scan is large enough, a serial fused loop
// otherwise.
func (ex *executor) newChainIterator(cs *chainSpec) (BatchIterator, error) {
	// Compile one stage instance up front so expression errors surface
	// before any goroutine starts.
	stages, err := newPipeStages(cs)
	if err != nil {
		return nil, err
	}
	parts, src, morsels, err := ex.openChain(cs)
	if err != nil {
		return nil, err
	}
	if len(morsels) <= 1 {
		return ex.serialChain(parts, src, stages), nil
	}
	run := newOrderedRun[morselResult](len(morsels), ex.opts.Parallelism)
	wstages, err := perWorker(run.workers, stages, func() ([]pipeStage, error) { return newPipeStages(cs) })
	if err != nil {
		return nil, err
	}
	ex.closeChain(run.close, src.share)
	return &pipelineIter{run: run, src: src, morsels: morsels, wstages: wstages}, nil
}

// openChain commits a fused chain to its scan: it resolves the partitions
// (charging BytesScanned — from here on the chain must run, never fall back
// to the pull builders), installs the chain's zone checks on the leaf's
// fresh skip controller, counts the pipeline, and cuts the morsels. At most
// one morsel (always, at Parallelism 1) means the caller takes serialChain.
func (ex *executor) openChain(cs *chainSpec) ([]*storage.Partition, *morselSource, []morsel, error) {
	parts, src, err := ex.scanSource(cs.scan, cs.prune)
	if err != nil {
		return nil, nil, nil, err
	}
	ex.configureChainSkip(cs)
	ex.metrics.addFusedPipelines(1)
	var morsels []morsel
	if ex.opts.Parallelism > 1 {
		morsels = buildMorsels(parts, morselTarget(parts, ex.opts.BatchSize, ex.opts.Parallelism))
	}
	return parts, src, morsels, nil
}

// serialChain is the fused loop without workers, over an opened chain and
// the stage instance its caller compiled for validation.
func (ex *executor) serialChain(parts []*storage.Partition, src *morselSource, stages []pipeStage) BatchIterator {
	ex.closeChain(nil, src.share)
	return &chainIter{
		src: &scanIter{src: src, parts: parts}, stages: stages, m: ex.metrics,
		co: batchCoalescer{target: ex.opts.BatchSize},
	}
}

// batchCoalescer repacks a stream of decoded batches to the nominal batch
// size. Decode batches never span partitions, so date-partitioned facts with
// many small partitions feed the push loop far-below-nominal batches, where
// per-batch costs (mask-family setup, selection builds, evaluator dispatch)
// dominate per-row work. Repacking is one columnar copy per short batch;
// already-full batches pass through untouched, so large partitions and
// BatchSize 1 pay nothing. Row order is preserved exactly — results and
// per-row accounting are unchanged, only batch boundaries move.
type batchCoalescer struct {
	target int
	cols   [][]types.Value
	n      int
}

func (co *batchCoalescer) ensure(width int) {
	if co.cols == nil {
		co.cols = make([][]types.Value, width)
		for c := range co.cols {
			co.cols[c] = make([]types.Value, 0, co.target)
		}
	}
}

func (co *batchCoalescer) take(b *vec.Batch, lo, hi int) {
	co.ensure(len(b.Cols))
	if b.Sel == nil {
		for c := range co.cols {
			co.cols[c] = append(co.cols[c], b.Cols[c][lo:hi]...)
		}
	} else {
		for _, r := range b.Sel[lo:hi] {
			for c := range co.cols {
				co.cols[c] = append(co.cols[c], b.Cols[c][r])
			}
		}
	}
	co.n += hi - lo
}

// add accepts the next source batch and returns a full batch when one is
// ready (nil otherwise). Source batches never exceed the target, so at most
// one batch completes per add.
func (co *batchCoalescer) add(b *vec.Batch) *vec.Batch {
	bn := b.Len()
	if bn == 0 {
		return nil
	}
	if co.n == 0 && bn >= co.target {
		return b
	}
	fill := co.target - co.n
	if fill > bn {
		fill = bn
	}
	co.take(b, 0, fill)
	var out *vec.Batch
	if co.n >= co.target {
		out = co.flush()
	}
	if fill < bn {
		co.take(b, fill, bn)
	}
	return out
}

// flush returns the pending short batch, nil when empty.
func (co *batchCoalescer) flush() *vec.Batch {
	if co.n == 0 {
		return nil
	}
	b := vec.NewDense(co.cols, co.n)
	co.cols, co.n = nil, 0
	return b
}

// chainIter is the serial fused chain: one loop per source batch, no
// intermediate operator boundaries.
type chainIter struct {
	src     BatchIterator
	stages  []pipeStage
	m       *Metrics
	co      batchCoalescer
	srcDone bool
}

func (it *chainIter) NextBatch() (*vec.Batch, error) {
	for {
		var cb *vec.Batch
		if !it.srcDone {
			b, err := it.src.NextBatch()
			if err != nil {
				return nil, err
			}
			if b == nil {
				it.srcDone = true
				cb = it.co.flush()
			} else {
				cb = it.co.add(b)
			}
		}
		if cb == nil {
			if it.srcDone {
				return nil, nil
			}
			continue
		}
		it.m.addPipelineBatches(1)
		if out := runStages(it.stages, cb, it.m); out != nil {
			return out, nil
		}
	}
}

// orderedRun schedules morsels across workers and delivers each morsel's
// result strictly in morsel order — the generalization of the parallel
// scan's delivery discipline that every push pipeline (fused chains and the
// blocking sinks) shares. Workers claim morsel indices from an atomic
// counter; each result travels through a dedicated 1-slot channel so a
// worker always finishes its claimed morsel even if the consumer has gone
// away, and a token semaphore bounds produced-but-unconsumed morsels.
type orderedRun[T any] struct {
	n       int
	workers int
	next    int64
	stop    chan struct{}
	tokens  chan struct{}
	results []chan T
	wg      sync.WaitGroup
	started bool
	mi      int
}

func newOrderedRun[T any](n, workers int) *orderedRun[T] {
	if workers > n {
		workers = n
	}
	r := &orderedRun[T]{
		n:       n,
		workers: workers,
		stop:    make(chan struct{}),
		tokens:  make(chan struct{}, 2*workers),
		results: make([]chan T, n),
	}
	for i := range r.results {
		r.results[i] = make(chan T, 1)
	}
	return r
}

// start launches the workers; work(w, i) processes morsel i on worker w
// (the worker index keys per-worker stage and sink state). Idempotent.
func (r *orderedRun[T]) start(work func(w, i int) T) {
	if r.started {
		return
	}
	r.started = true
	r.wg.Add(r.workers)
	for w := 0; w < r.workers; w++ {
		go func(w int) {
			defer r.wg.Done()
			for {
				select {
				case <-r.stop:
					return
				case r.tokens <- struct{}{}:
				}
				i := int(atomic.AddInt64(&r.next, 1)) - 1
				if i >= r.n {
					<-r.tokens
					return
				}
				r.results[i] <- work(w, i)
			}
		}(w)
	}
}

// recv returns the next morsel's result in order; ok=false at exhaustion.
func (r *orderedRun[T]) recv() (T, bool) {
	var zero T
	if r.mi >= r.n {
		return zero, false
	}
	t := <-r.results[r.mi]
	r.mi++
	<-r.tokens
	return t, true
}

// close stops the workers and waits for in-flight morsels to finish, so no
// worker touches the run's metrics after close returns. Safe to call before
// start and more than once.
func (r *orderedRun[T]) close() {
	if !r.started {
		return
	}
	select {
	case <-r.stop:
	default:
		close(r.stop)
	}
	r.wg.Wait()
}

// pipelineIter is the morsel-parallel fused chain: each worker runs the
// push loop over its claimed morsel through its own stage instances and
// delivers the chain's output batches in morsel order.
type pipelineIter struct {
	run     *orderedRun[morselResult]
	src     *morselSource
	morsels []morsel
	wstages [][]pipeStage

	cur    []*vec.Batch
	curIdx int
}

func (it *pipelineIter) work(w, i int) morselResult {
	var res morselResult
	res.err = it.src.runChain(it.morsels[i].parts, it.wstages[w], it.run.stop, func(ob *vec.Batch) {
		res.batches = append(res.batches, ob)
	})
	return res
}

func (it *pipelineIter) NextBatch() (*vec.Batch, error) {
	it.run.start(it.work)
	for {
		if it.curIdx < len(it.cur) {
			b := it.cur[it.curIdx]
			it.curIdx++
			return b, nil
		}
		res, ok := it.run.recv()
		if !ok {
			return nil, nil
		}
		if res.err != nil {
			return nil, res.err
		}
		it.cur, it.curIdx = res.batches, 0
	}
}
