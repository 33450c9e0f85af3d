// Package exec is the vectorized execution engine: a pull-based operator
// tree over logical plans, mirroring Athena's execution model at
// single-process scale, but batch-at-a-time rather than tuple-at-a-time.
// Every operator implements NextBatch, exchanging columnar vec.Batch values
// (column vectors plus a selection vector); scan leaves decode whole column
// chunks in one pass and, when Parallelism allows, run as morsel-driven
// parallel workers over partitions. Plans still execute without
// materialization points — hash joins buffer only their build side,
// aggregations only their group state, windows only the current input —
// which is exactly the design property that makes duplicated common
// subexpressions expensive and fusion worthwhile.
//
// The executor reports the three metrics the paper's evaluation uses:
// wall-clock latency (measured by the caller), bytes scanned from storage
// (Figure 2), and a CPU proxy (rows processed across all operators), plus a
// memory proxy (peak rows held in hash state, the §V.C spilling story).
// Counters are updated once per batch, not once per row, so parallel scan
// leaves add no per-row atomic traffic.
package exec

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/memctl"
	"repro/internal/rescache"
	"repro/internal/scanshare"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/vec"
)

// Row is one tuple of values, ordered by the producing operator's schema.
type Row = []types.Value

// BatchIterator produces columnar batches; a nil batch signals exhaustion.
// Returned batches are owned by the caller until the next NextBatch call.
type BatchIterator interface {
	NextBatch() (*vec.Batch, error)
}

// DefaultBatchSize is the row count per batch when Options does not set one.
const DefaultBatchSize = 1024

// Options tunes the physical execution of a plan.
type Options struct {
	// Parallelism bounds the concurrent CPU work of one run: morsel-scan
	// workers, hash-join build partitions and aggregation partitions all
	// share one pool of this many slots. 0 means GOMAXPROCS; 1 disables
	// every parallel path.
	Parallelism int
	// BatchSize is the number of rows per execution batch. 0 means
	// DefaultBatchSize; 1 degenerates to row-at-a-time execution (the
	// equivalence baseline).
	BatchSize int
	// ShareScans attaches this run's scan leaves to the store's cross-query
	// scan-share manager: chunk decodes are deduplicated against concurrent
	// queries over the same partitions and backed by a bounded decoded-chunk
	// cache. Results are identical either way; only physical decode work
	// (Metrics.Share.BytesDecoded) changes.
	ShareScans bool
	// ScanCacheBytes bounds the shared decoded-chunk cache (estimated
	// resident bytes; <= 0 means scanshare.DefaultCacheBytes). The first run
	// to touch a store fixes its cache size.
	ScanCacheBytes int64
	// ResultCacheBytes, when > 0, attaches this run to the store's semantic
	// sub-plan result cache (internal/rescache) bounded to that many result
	// bytes: eligible completed sub-plans are offered for cost-weighted
	// admission, and structurally equal sub-plans of later runs are served
	// from cache with as-if-solo metric attribution. The first run to touch
	// a store fixes the cache size. 0 disables the cache for this run.
	ResultCacheBytes int64
	// MemPool is the engine-level memory budget this run reserves blocking
	// operator state against (see internal/memctl). nil means a private
	// unlimited pool: reservations are tracked for Metrics but never fail
	// and never trigger spills.
	MemPool *memctl.Pool
	// QueryText is the SQL text of the run, used to attribute
	// ErrMemoryExceeded failures to the offending query.
	QueryText string
	// NaiveMasks disables the mask-family kernel: filter predicates and
	// aggregation FILTER masks fall back to independent per-expression batch
	// evaluators. Results are identical either way — this is the
	// differential-validation reference, not a tuning knob.
	NaiveMasks bool
	// PullExec disables push-based pipeline fusion: every operator runs as
	// its own pull iterator with per-boundary batch materialization, exactly
	// the pre-fusion execution model. Results are identical either way —
	// this is the differential-validation reference.
	PullExec bool
	// SharedClients, when > 1, marks this run as a cross-query fused plan
	// executed once on behalf of that many concurrent clients
	// (internal/xfuse). Memory reservations are then attributed through a
	// shared tracker so a budget failure names every affected client.
	SharedClients int
	// Workers, when non-nil, is an engine-resident worker pool shared by
	// every query the engine runs: total CPU concurrency stays bounded at
	// the pool size across concurrent queries instead of multiplying per
	// query. nil means a private per-run pool of Parallelism slots — the
	// historical one-shot behaviour.
	Workers *WorkerPool
	// Tenant attributes this run's memory reservations to a service-layer
	// tenant (memctl per-tenant accounting). "" means unattributed — the
	// default for embedded single-tenant use and for cross-tenant fused
	// plans, which hold one shared budget no single tenant owns.
	Tenant string
	// NoSkip disables zone-map chunk pruning and sideways join filters:
	// every chunk is decoded, exactly the pre-skipping execution model.
	// Results and logical metrics are identical either way — this is the
	// differential-validation reference.
	NoSkip bool
}

func (o Options) withDefaults() Options {
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	if o.BatchSize <= 0 {
		o.BatchSize = DefaultBatchSize
	}
	return o
}

// Metrics aggregates execution counters for one query run.
type Metrics struct {
	Storage storage.Metrics
	// Share counts the run's physical decode work and scan-share activity.
	// Storage.BytesScanned stays the query's logical scan volume (what the
	// paper's bytes-scanned pricing bills) regardless of sharing;
	// Share.BytesDecoded is the physical work this query actually performed.
	Share scanshare.Counters
	// RowsProcessed counts rows flowing through all operators (CPU proxy).
	RowsProcessed int64
	// HashRows counts rows retained in join/aggregate/window hash state
	// (memory proxy).
	HashRows int64
	// SpoolBytesWritten counts bytes materialized by Spool operators;
	// SpoolBytesRead counts bytes read back (once per consumer).
	SpoolBytesWritten int64
	SpoolBytesRead    int64
	// MaskPrefixHits counts per-mask row evaluations skipped by mask-family
	// factoring: rows the shared prefix eliminated times the family size,
	// plus survivor rows times the extra masks each shared residual conjunct
	// would have re-evaluated them under. Zero under NaiveMasks or when no
	// aggregation carries more than one distinct mask.
	MaskPrefixHits int64
	// Memory governance counters (internal/memctl). PeakMemoryBytes is the
	// query's peak tracked resident bytes — always <= the configured
	// MemoryLimitBytes, because the pool only admits reservations that fit
	// after spilling. SpilledBytes/SpillFiles count what blocking
	// operators shed to disk, and MemOperators attributes peaks and spill
	// volume per operator label ("groupby", "sort", "join-build", ...).
	PeakMemoryBytes int64
	SpilledBytes    int64
	SpillFiles      int64
	MemOperators    map[string]memctl.OpStats
	// Pipeline counts push-based fusion activity (zero under
	// Options.PullExec): FusedPipelines is the number of compiled operator
	// chains with at least one fused stage, PipelineBatches the source
	// batches pushed through them, and MaterializedBatchesSaved the batches
	// that crossed a fused project boundary without the dense column
	// materialization the pull path would have performed.
	Pipeline PipelineMetrics
	// ResultCache counts semantic result-cache activity for this run
	// (internal/rescache; all zero when Options.ResultCacheBytes is 0).
	// Hits/Misses count eligible sub-plans probed, ServedBytes the cached
	// result bytes replayed instead of recomputed, AdmissionRejects the
	// computed results the cache declined, and EvictedBytes the entry bytes
	// this run's admissions displaced. The logical counters above stay
	// as-if-solo on a hit: the entry replays the exact Storage/RowsProcessed
	// charges its original computation recorded.
	ResultCache ResultCacheMetrics
	// SharedExec tells the physical story of cross-query shared execution
	// (internal/xfuse) for this client's run. The logical counters above
	// (Storage, RowsProcessed) always describe the query as if it ran alone;
	// SharedExec records how it actually ran: how many queries landed in its
	// admission batch, how many of them one fused plan served, and whether
	// the run waited out an admission window. All zero when shared execution
	// is off or the query bypassed the window.
	SharedExec SharedExecMetrics
	// Skip counts data-skipping activity (zero under Options.NoSkip):
	// chunks/partitions whose decode was pruned by zone maps or sideways
	// join filters, and the encoded bytes that skipping saved. The logical
	// counters above are unchanged by pruning — skipped partitions are
	// re-charged exactly as-if-scanned.
	Skip SkipMetrics
	// Elapsed is the wall-clock execution time.
	Elapsed time.Duration
}

// SharedExecMetrics counts cross-query shared-execution activity for one
// client's run.
type SharedExecMetrics struct {
	// BatchedQueries is the number of queries admitted to this run's batch
	// (including this one).
	BatchedQueries int64
	// FusedPlans is the number of client queries the executed plan served:
	// >= 2 when this query ran fused with others, 1 when it fell back to a
	// solo run after batching.
	FusedPlans int64
	// WindowWaits counts admission windows this query waited through.
	WindowWaits int64
}

// ResultCacheMetrics counts semantic result-cache activity for one run.
type ResultCacheMetrics struct {
	Hits             int64
	Misses           int64
	AdmissionRejects int64
	EvictedBytes     int64
	ServedBytes      int64
}

// PipelineMetrics counts push-pipeline fusion activity for one run.
type PipelineMetrics struct {
	FusedPipelines           int64
	PipelineBatches          int64
	MaterializedBatchesSaved int64
}

func (m *Metrics) addProcessed(n int64)    { atomic.AddInt64(&m.RowsProcessed, n) }
func (m *Metrics) addHashRows(n int64)     { atomic.AddInt64(&m.HashRows, n) }
func (m *Metrics) addSpoolWritten(n int64) { atomic.AddInt64(&m.SpoolBytesWritten, n) }
func (m *Metrics) addSpoolRead(n int64)    { atomic.AddInt64(&m.SpoolBytesRead, n) }
func (m *Metrics) addMaskPrefixHits(n int64) {
	if n != 0 {
		atomic.AddInt64(&m.MaskPrefixHits, n)
	}
}
func (m *Metrics) addFusedPipelines(n int64)  { atomic.AddInt64(&m.Pipeline.FusedPipelines, n) }
func (m *Metrics) addPipelineBatches(n int64) { atomic.AddInt64(&m.Pipeline.PipelineBatches, n) }
func (m *Metrics) addMaterializedSaved(n int64) {
	if n != 0 {
		atomic.AddInt64(&m.Pipeline.MaterializedBatchesSaved, n)
	}
}

// Result is a fully drained query result.
type Result struct {
	Columns []*expr.Column
	Rows    []Row
	Metrics Metrics
}

// Run builds and drains the physical plan with default options.
func Run(plan logical.Operator, store *storage.Store) (*Result, error) {
	return RunWith(plan, store, Options{})
}

// RunWith builds and drains the physical plan for a logical plan under the
// given execution options.
func RunWith(plan logical.Operator, store *storage.Store, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	ex := newExecutor(store, opts)
	defer ex.close()
	start := time.Now()
	it, err := ex.build(plan)
	if err != nil {
		return nil, err
	}
	width := len(plan.Schema())
	var rows []Row
	for {
		b, err := it.NextBatch()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		n := b.Len()
		for i := 0; i < n; i++ {
			row := make(Row, width)
			b.Gather(i, row)
			rows = append(rows, row)
		}
	}
	// Stop and drain every worker before snapshotting: an abandoned scan
	// (LIMIT) may still have a worker decoding, and its storage-metric adds
	// must happen-before the copy below.
	ex.close()
	ex.metrics.Elapsed = time.Since(start)
	return &Result{Columns: plan.Schema(), Rows: rows, Metrics: *ex.metrics}, nil
}

// newExecutor assembles one run's executor from resolved options: memory
// pool and tracker (per-tenant or shared-batch attributed), worker pool
// (engine-resident when supplied, private otherwise), and the store's
// scan-share manager when opted in.
func newExecutor(store *storage.Store, opts Options) *executor {
	mempool := opts.MemPool
	if mempool == nil {
		mempool = memctl.NewPool(0, "")
	}
	var tracker *memctl.Tracker
	switch {
	case opts.SharedClients > 1:
		// A fused plan serving N clients reserves against the pool exactly
		// once; budget failures name the whole batch.
		tracker = mempool.NewSharedTracker(opts.QueryText, opts.SharedClients)
	case opts.Tenant != "":
		tracker = mempool.NewTenantTracker(opts.QueryText, opts.Tenant)
	default:
		tracker = mempool.NewTracker(opts.QueryText)
	}
	pool := opts.Workers
	if pool == nil {
		pool = newWorkerPool(opts.Parallelism)
	}
	ex := &executor{
		store:   store,
		metrics: &Metrics{},
		opts:    opts,
		pool:    pool,
		mempool: mempool,
		tracker: tracker,
	}
	if opts.ShareScans {
		ex.share = scanshare.For(store, opts.ScanCacheBytes)
	}
	if opts.ResultCacheBytes > 0 {
		ex.rcache = rescache.For(store, opts.ResultCacheBytes)
	}
	return ex
}

// snapshotMem copies the tracker's final accounting into the metrics.
func (ex *executor) snapshotMem() {
	st := ex.tracker.Stats()
	ex.metrics.PeakMemoryBytes = st.PeakBytes
	ex.metrics.SpilledBytes = st.SpilledBytes
	ex.metrics.SpillFiles = st.SpillFiles
	if len(st.Operators) > 0 {
		ex.metrics.MemOperators = st.Operators
	}
}

type executor struct {
	store   *storage.Store
	metrics *Metrics
	opts    Options
	pool    *workerPool
	spools  map[int]*spoolState
	// share is the store's cross-query scan-share manager, nil when
	// Options.ShareScans is off.
	share *scanshare.Manager
	// rcache is the store's semantic result cache, nil when
	// Options.ResultCacheBytes is 0. rcDepth > 0 while building inside a
	// capture or replay subtree, where nested probes are disabled (each
	// query caches at most the topmost eligible sub-plan along any path).
	rcache  *rescache.Cache
	rcDepth int
	// mempool is the resolved memory pool (opts.MemPool, or a private
	// unlimited pool) and tracker this run's accounting handle; blocking
	// operators reserve their resident state against it and register
	// spillables.
	mempool *memctl.Pool
	tracker *memctl.Tracker
	// closers stop morsel-scan worker pools and wait for them to drain; Run
	// invokes them on exit so an abandoned scan (LIMIT, error) never leaks
	// goroutines or races the final metrics snapshot.
	closers []func()
	closed  bool
	// noPush > 0 while building a subtree a LIMIT above may abandon
	// mid-stream on success. Push pipelines run ahead of their consumer and
	// charge metrics worker-side, which only matches the pull path under
	// guaranteed-total consumption, so such subtrees stay pull; blocking
	// operators reset the guard for their own (totally consumed) inputs via
	// buildConsumed.
	noPush int
	// sideCtrls maps each built scan leaf to its skip controller so the
	// layers that know the predicates (filters, chains, hash joins) can
	// configure pruning after the leaf is built. Empty under Options.NoSkip.
	sideCtrls map[*logical.Scan]*scanCtrlReg
	// extraSkip carries zone checks compiled by RunShared from the
	// mask-family shared-prefix conjuncts — pruning every member of a fused
	// batch agrees on, appended to whatever the chain's own filter
	// contributes.
	extraSkip map[*logical.Scan][]skipCheck
}

// buildConsumed builds the input of a blocking operator. The operator
// drains this subtree completely regardless of any LIMIT above it, so push
// pipelines are safe again beneath it.
func (ex *executor) buildConsumed(op logical.Operator) (BatchIterator, error) {
	saved := ex.noPush
	ex.noPush = 0
	it, err := ex.build(op)
	ex.noPush = saved
	return it, err
}

func (ex *executor) close() {
	if ex.closed {
		return
	}
	ex.closed = true
	for _, c := range ex.closers {
		c()
	}
	// Snapshot memory stats before the tracker closes (Close zeroes live
	// reservations), then release the query's budget and drop any spill
	// files operators left registered (mid-query error or LIMIT abandon).
	ex.snapshotMem()
	ex.tracker.Close()
}

// onClose registers cleanup to run when the executor shuts down. Operators
// use it to remove spill files on both success and mid-query abandonment.
func (ex *executor) onClose(f func()) {
	ex.closers = append(ex.closers, f)
}

// layoutOf maps each output column of op to its row position.
func layoutOf(op logical.Operator) map[expr.ColumnID]int {
	sch := op.Schema()
	m := make(map[expr.ColumnID]int, len(sch))
	for i, c := range sch {
		m[c.ID] = i
	}
	return m
}

// evaluator is a compiled expression bound to a row layout.
type evaluator struct {
	fn evalFn
}

func newEvaluator(e expr.Expr, layout map[expr.ColumnID]int) (*evaluator, error) {
	if e == nil {
		return nil, nil
	}
	fn, err := compileExpr(e, layout)
	if err != nil {
		return nil, fmt.Errorf("exec: compiling %s: %w", e, err)
	}
	return &evaluator{fn: fn}, nil
}

// eval evaluates against the given row.
func (ev *evaluator) eval(row Row) types.Value { return ev.fn(row) }

// build dispatches on operator type. Unless Options.PullExec asks for the
// pure pull model, maximal non-blocking Scan→Filter→Project chains compile
// into one push-driven pipeline instead of a stack of pull iterators; every
// other operator (a pipeline breaker) keeps its pull implementation and
// consumes fused chains through the BatchIterator facade.
func (ex *executor) build(op logical.Operator) (BatchIterator, error) {
	if it, ok, err := ex.buildResultCached(op); ok || err != nil {
		return it, err
	}
	if !ex.opts.PullExec {
		if it, ok, err := ex.buildPipeline(op); ok || err != nil {
			return it, err
		}
	}
	switch o := op.(type) {
	case *logical.Scan:
		return ex.buildScan(o, nil)
	case *logical.Filter:
		return ex.buildFilter(o)
	case *logical.Project:
		return ex.buildProject(o)
	case *logical.Join:
		return ex.buildJoin(o)
	case *logical.GroupBy:
		return ex.buildGroupBy(o)
	case *logical.MarkDistinct:
		return ex.buildMarkDistinct(o)
	case *logical.Window:
		return ex.buildWindow(o)
	case *logical.UnionAll:
		return ex.buildUnion(o)
	case *logical.Values:
		return &valuesIter{rows: o.Rows, width: len(o.Schema()), batchSize: ex.opts.BatchSize}, nil
	case *logical.Sort:
		return ex.buildSort(o)
	case *logical.Limit:
		// LIMIT abandons its input mid-stream on success; everything below
		// it (down to the next blocking operator) must stay pull so no
		// pipeline worker runs ahead of the truncation point.
		ex.noPush++
		in, err := ex.build(o.Input)
		ex.noPush--
		if err != nil {
			return nil, err
		}
		return &limitIter{in: in, remaining: o.N}, nil
	case *logical.EnforceSingleRow:
		// On success the single-row check drains its input completely.
		in, err := ex.buildConsumed(o.Input)
		if err != nil {
			return nil, err
		}
		return &esrIter{in: in, width: len(o.Schema())}, nil
	case *logical.Spool:
		return ex.buildSpool(o)
	default:
		return nil, fmt.Errorf("exec: unsupported operator %T", op)
	}
}

// drainRows pulls every batch of in, materializing rows and charging
// RowsProcessed once per batch. Blocking operators (sort, window, nested
// loop build) use it to buffer their input.
func drainRows(in BatchIterator, width int, m *Metrics) ([]Row, error) {
	var rows []Row
	for {
		b, err := in.NextBatch()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return rows, nil
		}
		n := b.Len()
		m.addProcessed(int64(n))
		for i := 0; i < n; i++ {
			row := make(Row, width)
			b.Gather(i, row)
			rows = append(rows, row)
		}
	}
}

// drainRowsTracked is drainRows with memctl accounting: each batch's
// estimated resident bytes are reserved under op before the rows are kept.
// The caller owns releasing the reservation (typically on operator EOF or
// via ex.onClose). Buffered rows here are not spillable — a reservation
// failure surfaces as ErrMemoryExceeded.
func drainRowsTracked(in BatchIterator, width int, m *Metrics, tracker *memctl.Tracker, op string) ([]Row, int64, error) {
	var rows []Row
	var reserved int64
	for {
		b, err := in.NextBatch()
		if err != nil {
			return nil, reserved, err
		}
		if b == nil {
			return rows, reserved, nil
		}
		n := b.Len()
		m.addProcessed(int64(n))
		var chunkBytes int64
		for i := 0; i < n; i++ {
			row := make(Row, width)
			b.Gather(i, row)
			rows = append(rows, row)
			chunkBytes += rowMemBytes(row)
			// Chunked so one large batch never needs a single reservation
			// bigger than the pool limit (spillable operators can shed
			// between chunks).
			if chunkBytes >= reserveChunkBytes {
				if err := tracker.Reserve(op, chunkBytes); err != nil {
					return nil, reserved, err
				}
				reserved += chunkBytes
				chunkBytes = 0
			}
		}
		if chunkBytes > 0 {
			if err := tracker.Reserve(op, chunkBytes); err != nil {
				return nil, reserved, err
			}
			reserved += chunkBytes
		}
	}
}

// rowsBatcher re-emits materialized rows as dense batches. When a tracker
// is set, each row's reservation is released as it is emitted: the owning
// operator is done and unregistered, and holding the full buffer's budget
// through emission would starve downstream consumers.
type rowsBatcher struct {
	rows      []Row
	width     int
	batchSize int
	idx       int
	tracker   *memctl.Tracker
	op        string
	residual  int64
}

func (it *rowsBatcher) NextBatch() (*vec.Batch, error) {
	if it.idx >= len(it.rows) {
		return nil, nil
	}
	bl := vec.NewBuilder(it.width, it.batchSize)
	var freed int64
	for it.idx < len(it.rows) && !bl.Full() {
		bl.Append(it.rows[it.idx])
		if it.tracker != nil {
			freed += rowMemBytes(it.rows[it.idx])
		}
		it.idx++
	}
	if it.tracker != nil && freed > 0 {
		if freed > it.residual {
			freed = it.residual
		}
		it.residual -= freed
		it.tracker.Release(it.op, freed)
	}
	return bl.Flush(), nil
}

// errTooManyRows is returned by EnforceSingleRow on multi-row input.
var errTooManyRows = errors.New("exec: scalar subquery returned more than one row")
