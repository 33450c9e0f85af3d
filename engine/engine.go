// Package engine is the public API of the query engine: an embeddable,
// Athena-style streaming SQL engine with computation reuse via query fusion
// (Bruno et al., "Computation Reuse via Fusion in Amazon Athena",
// ICDE 2022).
//
// Usage:
//
//	cat := engine.NewCatalog()
//	cat.MustAdd(&engine.Table{ ... })
//	eng := engine.Open(cat, engine.Config{EnableFusion: true})
//	eng.Load("t", rows)
//	res, err := eng.Query("SELECT ...")
//
// The Config.EnableFusion switch toggles the paper's optimization rules;
// everything else (parser, binder, classical optimizer, streaming executor,
// partitioned columnar storage with bytes-scanned accounting) is shared, so
// baseline-versus-fused comparisons isolate exactly the paper's
// contribution.
package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"

	"repro/internal/binder"
	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/memctl"
	"repro/internal/optimizer"
	"repro/internal/scanshare"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/xfuse"
)

// ErrMemoryExceeded is returned (wrapped) when a query's unspillable state
// cannot fit in Config.MemoryLimitBytes even after spilling everything that
// can spill. Test with errors.Is; the full *memctl.MemoryExceededError
// carries the query text, operator, and peak usage.
var ErrMemoryExceeded = memctl.ErrMemoryExceeded

// ErrEngineClosed is returned by queries submitted after Close. Test with
// errors.Is.
var ErrEngineClosed = errors.New("engine: closed")

// Re-exported building blocks so embedders need only this package.
type (
	// Value is a SQL scalar value.
	Value = types.Value
	// Table declares a base table's schema.
	Table = catalog.Table
	// Column declares one table column.
	Column = catalog.Column
	// Catalog is a collection of table definitions.
	Catalog = catalog.Catalog
	// Metrics carries per-query execution counters.
	Metrics = exec.Metrics
	// SkipMetrics carries the data-skipping counters (Metrics.Skip).
	SkipMetrics = exec.SkipMetrics
)

// Scalar kind constants for table declarations.
const (
	KindBool    = types.KindBool
	KindInt64   = types.KindInt64
	KindFloat64 = types.KindFloat64
	KindString  = types.KindString
	KindDate    = types.KindDate
)

// Value constructors.
var (
	Int    = types.Int
	Float  = types.Float
	String = types.String
	Bool   = types.Bool
	Date   = types.Date
)

// NewCatalog creates an empty catalog.
func NewCatalog() *Catalog { return catalog.New() }

// Engine is an embeddable SQL engine instance.
type Engine struct {
	store  *storage.Store
	binder *binder.Binder
	config Config // normalized (see Config.normalize)
	// mempool is the engine-level memory budget shared by every query this
	// instance runs; blocking operators reserve against it and spill to
	// config.SpillDir under pressure.
	mempool *memctl.Pool
	// workers is the engine-resident worker pool shared by every solo query
	// this instance runs: concurrent queries contend for Parallelism slots
	// total instead of Parallelism each, which is what makes a resident
	// multi-tenant service's CPU footprint configuration-bounded. Fused
	// shared-execution runs size their own pools (see xfuse.Runner).
	workers *exec.WorkerPool
	// shared batches concurrently arriving queries for cross-query fused
	// execution; nil unless Config.ShareExec.
	shared *xfuse.Runner

	// mu/queries/closed implement the Close lifecycle: queries register
	// under the read lock, Close flips closed under the write lock and then
	// drains.
	mu      sync.RWMutex
	queries sync.WaitGroup
	closed  bool
}

// Open creates an engine over the catalog.
func Open(cat *Catalog, cfg Config) *Engine {
	return newEngine(storage.NewStore(cat), cat, cfg)
}

// OpenWithStore creates an engine over an existing loaded store (sharing
// data between engine instances, e.g. a baseline and a fused engine).
func OpenWithStore(st *storage.Store, cfg Config) *Engine {
	return newEngine(st, st.Catalog(), cfg)
}

func newEngine(st *storage.Store, cat *Catalog, cfg Config) *Engine {
	cfg = cfg.normalize()
	e := &Engine{
		store:   st,
		binder:  binder.New(cat),
		config:  cfg,
		mempool: memctl.NewPool(cfg.MemoryLimitBytes, cfg.SpillDir),
		workers: exec.NewWorkerPool(cfg.Parallelism),
	}
	if cfg.ShareExec {
		e.shared = xfuse.NewRunner(st, e.execOptions(""), xfuse.Config{
			Window:     cfg.AdmissionWindow,
			MaxQueries: cfg.MaxFusedQueries,
		})
	}
	return e
}

// execOptions is the single translation from engine config to execution
// options; the shared-execution runner gets the same template (with
// QueryText filled per fused run).
func (e *Engine) execOptions(sqlText string) exec.Options {
	return e.execOptionsAs(sqlText, "")
}

// execOptionsAs is execOptions with per-tenant memory attribution.
func (e *Engine) execOptionsAs(sqlText, tenant string) exec.Options {
	return exec.Options{
		Parallelism:    e.config.Parallelism,
		BatchSize:      e.config.BatchSize,
		ShareScans:     e.config.ShareScans,
		ScanCacheBytes: e.config.ScanCacheBytes,
		MemPool:        e.mempool,
		Workers:        e.workers,
		Tenant:         tenant,
		QueryText:      sqlText,
		NaiveMasks:     e.config.naiveMasks,
		PullExec:       e.config.pullExec,
		NoSkip:         e.config.noSkip,

		ResultCacheBytes: e.config.ResultCacheBytes,
	}
}

// Store exposes the underlying store (for sharing via OpenWithStore).
func (e *Engine) Store() *storage.Store { return e.store }

// MemPool exposes the engine's memory budget pool; a service layer uses it
// to gate per-tenant admission (memctl.Pool.TenantUsed) and to wait for
// pressure to subside (memctl.Pool.ReleaseWait) instead of failing queries.
func (e *Engine) MemPool() *memctl.Pool { return e.mempool }

// ExpectShared announces to the shared-execution admission window that n
// queries are about to be submitted (a service dispatch round), so they
// land in one batch deterministically instead of racing the wall-clock
// window. The returned func cancels whatever part of the announcement never
// arrives; it is idempotent and must eventually be called. Without
// Config.ShareExec this is a no-op.
func (e *Engine) ExpectShared(n int) (done func()) {
	if e.shared == nil {
		return func() {}
	}
	return e.shared.ExpectArrivals(n)
}

// beginQuery registers a query run against the Close lifecycle.
func (e *Engine) beginQuery() error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return ErrEngineClosed
	}
	e.queries.Add(1)
	return nil
}

func (e *Engine) endQuery() { e.queries.Done() }

// Close shuts the engine down: new queries fail with ErrEngineClosed,
// in-flight queries (including fused shared runs) are drained to
// completion, the resident worker pool is released, and any chunk decodes
// this engine led through the store's scan-share manager are allowed to
// resolve. The store itself is untouched — other engines over it keep
// working — and Close is idempotent.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()
	if e.shared != nil {
		// Seal the open admission window and drain fused executions; their
		// submitters are registered in queries and finish next.
		e.shared.Close()
	}
	e.queries.Wait()
	e.workers.Close()
	if e.config.ShareScans {
		// Wait out in-flight chunk decodes (bounded, pure CPU); open streams
		// may belong to other engines over the same store and are left alone.
		scanshare.For(e.store, e.config.ScanCacheBytes).Quiesce()
	}
	return nil
}

// Load ingests rows into a table; row values must match the declared column
// order and types.
func (e *Engine) Load(table string, rows [][]Value) error {
	return e.store.Load(table, rows)
}

// Append ingests rows into a table as new partitions alongside the
// existing data — the runtime write path. It is safe to call while queries
// run: readers see either the pre- or post-append partition set, never a
// mix, and epoch- and partition-signature-keyed caches (chain shapes,
// cached sub-plan results) invalidate exactly the entries the append
// touches.
func (e *Engine) Append(table string, rows [][]Value) error {
	return e.store.Append(table, rows)
}

// Result is a fully materialized query result.
type Result struct {
	// Columns are the output column names.
	Columns []string
	// Rows holds the result tuples.
	Rows [][]Value
	// Metrics carries latency, bytes scanned, rows processed, and hash
	// memory counters for the run.
	Metrics Metrics
	// RulesFired lists the fusion rules that changed the plan, in order.
	RulesFired []string
	// Plan is the optimized logical plan (EXPLAIN text).
	Plan string
}

// Query parses, plans, optimizes and executes a SQL query.
func (e *Engine) Query(sqlText string) (*Result, error) {
	return e.QueryContext(context.Background(), sqlText)
}

// QueryContext is Query with cancellation: under Config.ShareExec a caller
// abandoning ctx mid-window leaves its batch cleanly (the remaining
// queries still fuse and run). Without ShareExec the context is checked
// before execution only.
func (e *Engine) QueryContext(ctx context.Context, sqlText string) (*Result, error) {
	p, err := e.Prepare(sqlText)
	if err != nil {
		return nil, err
	}
	return p.RunContext(ctx)
}

// QueryAs is QueryContext with the run's memory charged to tenant in the
// engine pool's per-tenant rollup (memctl.Pool.TenantUsed) — the primitive
// a multi-tenant service builds budgets on. An empty tenant is
// unattributed, exactly like QueryContext.
func (e *Engine) QueryAs(ctx context.Context, tenant, sqlText string) (*Result, error) {
	p, err := e.Prepare(sqlText)
	if err != nil {
		return nil, err
	}
	return p.RunContextAs(ctx, tenant)
}

// Prepared is a planned query that can be executed repeatedly without
// re-optimizing — how a production engine amortizes planning, and how the
// benchmarks separate plan-time from run-time.
type Prepared struct {
	eng        *Engine
	plan       logical.Operator
	names      []string
	rulesFired []string
	sqlText    string
}

// Prepare parses, binds and optimizes a query without executing it.
func (e *Engine) Prepare(sqlText string) (*Prepared, error) {
	plan, names, trace, err := e.plan(sqlText)
	if err != nil {
		return nil, err
	}
	return &Prepared{eng: e, plan: plan, names: names, rulesFired: trace.Fired, sqlText: sqlText}, nil
}

// Plan returns the optimized logical plan text.
func (p *Prepared) Plan() string { return logical.Format(p.plan) }

// RulesFired lists the fusion rules that changed the plan.
func (p *Prepared) RulesFired() []string { return p.rulesFired }

// Run executes the prepared plan.
func (p *Prepared) Run() (*Result, error) {
	return p.RunContext(context.Background())
}

// RunContext executes the prepared plan. Under Config.ShareExec the plan is
// first offered to the admission window: if it fuses with concurrently
// submitted queries, the returned result was demultiplexed from one shared
// run (byte-identical to solo, with Metrics.SharedExec set); otherwise it
// falls through to an ordinary solo run. ctx cancellation is honored while
// waiting on the window — execution already in flight completes on behalf
// of the rest of the batch.
func (p *Prepared) RunContext(ctx context.Context) (*Result, error) {
	return p.RunContextAs(ctx, "")
}

// RunContextAs is RunContext with the run's memory charged to tenant (see
// Engine.QueryAs).
func (p *Prepared) RunContextAs(ctx context.Context, tenant string) (*Result, error) {
	if err := p.eng.beginQuery(); err != nil {
		return nil, err
	}
	defer p.eng.endQuery()
	var stamp exec.SharedExecMetrics
	if p.eng.shared != nil {
		res, st, err := p.eng.shared.Submit(ctx, p.sqlText, p.plan)
		if err != nil {
			return nil, fmt.Errorf("engine: executing: %w", err)
		}
		if res != nil {
			return p.wrap(res), nil
		}
		stamp = st
	} else if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("engine: executing: %w", err)
	}
	res, err := exec.RunWith(p.plan, p.eng.store, p.eng.execOptionsAs(p.sqlText, tenant))
	if err != nil {
		return nil, fmt.Errorf("engine: executing: %w", err)
	}
	res.Metrics.SharedExec = stamp
	return p.wrap(res), nil
}

func (p *Prepared) wrap(res *exec.Result) *Result {
	return &Result{
		Columns:    p.names,
		Rows:       res.Rows,
		Metrics:    res.Metrics,
		RulesFired: p.rulesFired,
		Plan:       logical.Format(p.plan),
	}
}

// Explain returns the optimized logical plan without executing it, each
// operator annotated with its estimated cardinality.
func (e *Engine) Explain(sqlText string) (string, error) {
	plan, _, trace, err := e.plan(sqlText)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	if len(trace.Fired) > 0 {
		fmt.Fprintf(&b, "-- fusion rules fired: %s\n", strings.Join(trace.Fired, ", "))
	}
	b.WriteString(logical.FormatWith(plan, func(op logical.Operator) string {
		return fmt.Sprintf("(~%.0f rows)", logical.EstimateRows(op))
	}))
	return b.String(), nil
}

func (e *Engine) plan(sqlText string) (logical.Operator, []string, *optimizer.Trace, error) {
	bound, names, err := e.binder.BindSQL(sqlText)
	if err != nil {
		return nil, nil, nil, err
	}
	outputs := bound.Schema()
	opts := optimizer.Options{
		EnableFusion:  e.config.EnableFusion,
		MaxIterations: 10,
		Required:      outputs,
	}
	optimized, trace := optimizer.Optimize(bound, opts)
	if e.config.EnableSpooling {
		optimized, _ = optimizer.SpoolCommonSubplans(optimized)
	}
	if err := logical.Validate(optimized); err != nil {
		return nil, nil, nil, fmt.Errorf("engine: optimizer produced invalid plan: %w", err)
	}
	// Restore the statement's exact output schema (optimization may have
	// widened or reordered the root).
	optimized = restoreOutputs(optimized, outputs)
	return optimized, names, trace, nil
}

// restoreOutputs wraps the plan so its schema is exactly the bound output
// columns, in order.
func restoreOutputs(plan logical.Operator, outputs []*expr.Column) logical.Operator {
	sch := plan.Schema()
	if len(sch) == len(outputs) {
		same := true
		for i := range sch {
			if sch[i] != outputs[i] {
				same = false
				break
			}
		}
		if same {
			return plan
		}
	}
	// Sorts and limits must stay above the output projection.
	switch o := plan.(type) {
	case *logical.Limit:
		return &logical.Limit{Input: restoreOutputs(o.Input, outputs), N: o.N}
	case *logical.Sort:
		return &logical.Sort{Input: restoreOutputs(o.Input, outputs), Keys: o.Keys}
	}
	proj := &logical.Project{Input: plan}
	for _, c := range outputs {
		proj.Cols = append(proj.Cols, logical.Assignment{Col: c, E: expr.Ref(c)})
	}
	return proj
}
