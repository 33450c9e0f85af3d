// Package service turns one resident engine.Engine into a multi-tenant
// query service: a bounded admission queue in front of per-tenant FIFO
// queues, a weighted-round-robin dispatcher that releases queries into the
// engine in rounds (announced to the shared-execution admission window, so
// queries from different connections fuse deterministically), per-tenant
// concurrency and memory budgets that make contended queries wait instead
// of fail, and a graceful drain for shutdown.
//
// The service adds scheduling, never semantics: a query's rows and logical
// metrics are byte-identical to running it alone on the engine — admission
// control decides only when work starts and on whose budget it is charged.
package service

import (
	"context"
	"errors"
	"sort"
	"sync"
	"time"

	"repro/engine"
	"repro/internal/memctl"
)

// Sentinel errors; test with errors.Is.
var (
	// ErrQueueFull rejects a submission when the global admission queue is
	// at Config.QueueDepth — the service's only load-shedding.
	ErrQueueFull = errors.New("service: admission queue full")
	// ErrQueueTimeout fails a query still undispatched after
	// Config.QueueTimeout.
	ErrQueueTimeout = errors.New("service: queue wait timed out")
	// ErrClosed rejects submissions after Shutdown began.
	ErrClosed = errors.New("service: closed")
)

// itemState tracks where a submission is in its lifecycle (guarded by
// Server.mu).
type itemState int

const (
	stateQueued itemState = iota
	stateDispatched
)

// item is one queued query.
type item struct {
	tenant string
	sql    string
	ctx    context.Context
	enq    time.Time
	state  itemState
	res    chan itemResult // buffered(1); the run goroutine always delivers
}

type itemResult struct {
	res *engine.Result
	err error
}

// Server is the multi-tenant admission layer over one resident engine.
type Server struct {
	eng *engine.Engine
	cfg Config

	mu      sync.Mutex
	queues  map[string][]*item // per-tenant FIFO
	tenants []string           // sorted tenant names with history (stable WRR order)
	rr      int                // rotating WRR start position
	queued  int                // total items across queues
	running map[string]int     // per-tenant in-flight query count
	nrun    int                // total in-flight
	closed  bool

	kick    chan struct{} // wakes the dispatcher (capacity 1)
	drained chan struct{} // closed when shutdown has fully drained
	wg      sync.WaitGroup
	// retryMu serializes memory-exceeded retries: one retrying query runs
	// at a time, so two queries that each fit alone but not together cannot
	// fail each other's retry forever (see runWithMemoryWait).
	retryMu sync.Mutex

	stats serverStats
}

// serverStats accumulates scheduling observability (guarded by Server.mu).
type serverStats struct {
	submitted  int64
	rejected   int64
	dispatched int64
	completed  int64
	waits      map[string][]time.Duration // per-tenant queue waits, dispatch order
	order      []string                   // tenant of each dispatch, global order
}

// Stats is a point-in-time copy of the server's scheduling counters.
type Stats struct {
	// Submitted counts accepted submissions; Rejected counts ErrQueueFull.
	Submitted, Rejected int64
	// Dispatched counts queries released into the engine; Completed counts
	// queries whose result (or error) was produced.
	Dispatched, Completed int64
	// QueueWaits holds each tenant's queue-wait durations in dispatch
	// order.
	QueueWaits map[string][]time.Duration
	// DispatchOrder is the tenant of every dispatch, in global dispatch
	// order — what fairness assertions and the bench report read.
	DispatchOrder []string
}

// New creates a server over eng. The engine stays caller-owned: Shutdown
// drains the service but does not Close the engine.
func New(eng *engine.Engine, cfg Config) *Server {
	s := newStopped(eng, cfg)
	s.start()
	return s
}

// newStopped builds the server without its dispatcher goroutine; tests use
// it to enqueue a deterministic backlog before scheduling begins.
func newStopped(eng *engine.Engine, cfg Config) *Server {
	s := &Server{
		eng:     eng,
		cfg:     cfg.normalize(),
		queues:  make(map[string][]*item),
		running: make(map[string]int),
		kick:    make(chan struct{}, 1),
		drained: make(chan struct{}),
	}
	s.stats.waits = make(map[string][]time.Duration)
	return s
}

// start launches the dispatcher (exactly once).
func (s *Server) start() {
	s.wg.Add(1)
	go s.dispatcher()
	s.kickDispatcher()
}

// Config reports the server's normalized configuration.
func (s *Server) Config() Config { return s.cfg }

// Stats snapshots the scheduling counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := Stats{
		Submitted:  s.stats.submitted,
		Rejected:   s.stats.rejected,
		Dispatched: s.stats.dispatched,
		Completed:  s.stats.completed,
		QueueWaits: make(map[string][]time.Duration, len(s.stats.waits)),
	}
	for t, ws := range s.stats.waits {
		out.QueueWaits[t] = append([]time.Duration(nil), ws...)
	}
	out.DispatchOrder = append([]string(nil), s.stats.order...)
	return out
}

// Submit runs sql on behalf of tenant, waiting in the admission queue until
// the dispatcher releases it. It returns ErrQueueFull when the global queue
// is at depth, ErrQueueTimeout when the query is still queued after
// Config.QueueTimeout, ctx's error if the caller gives up first, and
// otherwise exactly what the engine returns. An empty tenant maps to
// Config.DefaultTenant.
func (s *Server) Submit(ctx context.Context, tenant, sql string) (*engine.Result, error) {
	if tenant == "" {
		tenant = s.cfg.DefaultTenant
	}
	it := &item{tenant: tenant, sql: sql, ctx: ctx, enq: time.Now(), res: make(chan itemResult, 1)}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if s.queued >= s.cfg.QueueDepth {
		s.stats.rejected++
		s.mu.Unlock()
		return nil, ErrQueueFull
	}
	s.stats.submitted++
	if _, seen := s.queues[it.tenant]; !seen {
		if _, known := s.running[it.tenant]; !known {
			s.tenants = append(s.tenants, it.tenant)
			sort.Strings(s.tenants)
		}
	}
	s.queues[it.tenant] = append(s.queues[it.tenant], it)
	s.queued++
	s.mu.Unlock()
	s.kickDispatcher()

	timer := time.NewTimer(s.cfg.QueueTimeout)
	defer timer.Stop()
	for {
		select {
		case r := <-it.res:
			return r.res, r.err
		case <-timer.C:
			if s.tryRemove(it) {
				return nil, ErrQueueTimeout
			}
			// Already dispatched: the timeout no longer applies; keep
			// waiting for the engine (bounded by ctx).
			timer.Stop()
			select {
			case r := <-it.res:
				return r.res, r.err
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		case <-ctx.Done():
			if s.tryRemove(it) {
				return nil, ctx.Err()
			}
			// Dispatched with a dead ctx: the run sees the same ctx; return
			// promptly, the run goroutine delivers into the buffered channel.
			return nil, ctx.Err()
		}
	}
}

// Ingest appends rows to table through the resident engine. Appends bypass
// the admission queue — they are not queries, hold no tenant budget, and
// the storage layer already serializes concurrent appends — but they
// respect shutdown: once Shutdown begins, ingest fails with ErrClosed so a
// draining server's data stops moving under its in-flight queries' feet no
// later than its queue stops accepting work.
func (s *Server) Ingest(table string, rows [][]engine.Value) error {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return ErrClosed
	}
	return s.eng.Append(table, rows)
}

// tryRemove pulls a still-queued item out of its tenant queue, reporting
// whether it was removed (false means the dispatcher already took it).
func (s *Server) tryRemove(it *item) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if it.state != stateQueued {
		return false
	}
	q := s.queues[it.tenant]
	for i, qi := range q {
		if qi == it {
			s.queues[it.tenant] = append(q[:i], q[i+1:]...)
			s.queued--
			it.state = stateDispatched // terminal; never dispatched
			return true
		}
	}
	return false
}

func (s *Server) kickDispatcher() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// Shutdown stops accepting submissions and drains: everything already
// queued is still dispatched and every in-flight query runs to completion,
// so no accepted query loses its (byte-identical) result. If ctx expires
// first, remaining queued items fail with ErrClosed and Shutdown returns
// ctx.Err() without waiting on in-flight queries (the caller's
// engine.Close will). Idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.kickDispatcher()
	select {
	case <-s.drained:
		s.wg.Wait()
		return nil
	case <-ctx.Done():
		s.failQueued(ErrClosed)
		return ctx.Err()
	}
}

// failQueued delivers err to every still-queued item.
func (s *Server) failQueued(err error) {
	s.mu.Lock()
	var victims []*item
	for t, q := range s.queues {
		for _, it := range q {
			it.state = stateDispatched // terminal
			victims = append(victims, it)
		}
		s.queues[t] = nil
	}
	s.queued = 0
	s.mu.Unlock()
	for _, it := range victims {
		it.res <- itemResult{err: err}
	}
	s.kickDispatcher()
}

// dispatcher is the single scheduling goroutine: each wakeup assembles one
// weighted-round-robin round of eligible queries and releases it into the
// engine as one announced arrival round.
func (s *Server) dispatcher() {
	defer s.wg.Done()
	for {
		<-s.kick
		for {
			round := s.takeRound()
			if len(round) == 0 {
				break
			}
			s.launch(round)
		}
		s.mu.Lock()
		done := s.closed && s.queued == 0 && s.nrun == 0
		s.mu.Unlock()
		if done {
			close(s.drained)
			return
		}
	}
}

// eligibleLocked reports whether tenant may dispatch another query given
// inRound additions this round: under its concurrency cap, and under its
// memory budget (a tenant with nothing running is always eligible, so a
// single over-budget query degrades to the engine-wide limit instead of
// livelocking).
func (s *Server) eligibleLocked(tenant string, inRound int) bool {
	active := s.running[tenant] + inRound
	if active >= s.cfg.TenantConcurrency {
		return false
	}
	if s.cfg.TenantMemoryBytes > 0 && active > 0 &&
		s.eng.MemPool().TenantUsed(tenant) >= s.cfg.TenantMemoryBytes {
		return false
	}
	return true
}

// takeRound assembles the next dispatch round under weighted round-robin:
// tenants are visited in rotating stable order across repeated cycles; in
// each block of maxWeight cycles, tenant t participates in weight(t) of
// them, so backlogged tenants dispatch proportionally to their weights —
// and a lone backlogged tenant still fills the whole round (rounds stay
// work-conserving, which is what feeds multi-query fusion batches). The
// round closes at Config.MaxDispatch queries or when no tenant is
// eligible. Taken items are marked dispatched and their running counts
// charged before the lock drops, so a concurrent round cannot overshoot a
// tenant's cap.
func (s *Server) takeRound() []*item {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.queued == 0 || len(s.tenants) == 0 {
		return nil
	}
	inRound := make(map[string]int)
	var round []*item
	take := func(tenant string) bool {
		q := s.queues[tenant]
		if len(q) == 0 || !s.eligibleLocked(tenant, inRound[tenant]) {
			return false
		}
		it := q[0]
		s.queues[tenant] = q[1:]
		s.queued--
		it.state = stateDispatched
		inRound[tenant]++
		round = append(round, it)
		return true
	}
	n := len(s.tenants)
	start := s.rr % n
	for cycle := 0; len(round) < s.cfg.MaxDispatch; cycle++ {
		// The weighting period is the largest weight among tenants that
		// still have backlog, recomputed per cycle as queues drain.
		maxW := 0
		for _, tenant := range s.tenants {
			if len(s.queues[tenant]) > 0 {
				if w := s.cfg.weight(tenant); w > maxW {
					maxW = w
				}
			}
		}
		if maxW == 0 {
			break
		}
		progress := false
		for i := 0; i < n && len(round) < s.cfg.MaxDispatch; i++ {
			tenant := s.tenants[(start+i)%n]
			if cycle%maxW < s.cfg.weight(tenant) && take(tenant) {
				progress = true
			}
		}
		if !progress && cycle%maxW == maxW-1 {
			// A full weighting block passed with nothing taken: every
			// backlogged tenant is at its concurrency or memory cap.
			break
		}
	}
	s.rr++
	now := time.Now()
	for _, it := range round {
		s.running[it.tenant]++
		s.nrun++
		s.stats.dispatched++
		s.stats.waits[it.tenant] = append(s.stats.waits[it.tenant], now.Sub(it.enq))
		s.stats.order = append(s.stats.order, it.tenant)
	}
	return round
}

// launch releases one round into the engine. The round is announced to the
// shared-execution admission window first, so its queries — often from
// different connections — land in one fusion batch deterministically; the
// announcement's residue (queries that fail before reaching the window,
// e.g. parse errors) is cancelled once the whole round has finished.
func (s *Server) launch(round []*item) {
	expectDone := s.eng.ExpectShared(len(round))
	var rwg sync.WaitGroup
	for _, it := range round {
		rwg.Add(1)
		s.wg.Add(1)
		go func(it *item) {
			defer s.wg.Done()
			defer rwg.Done()
			res, err := s.runWithMemoryWait(it)
			it.res <- itemResult{res: res, err: err}
			s.mu.Lock()
			s.running[it.tenant]--
			if s.running[it.tenant] <= 0 {
				delete(s.running, it.tenant)
			}
			s.nrun--
			s.stats.completed++
			s.mu.Unlock()
			s.kickDispatcher() // a slot freed; re-evaluate the queues
		}(it)
	}
	go func() {
		rwg.Wait()
		expectDone()
	}()
}

// runWithMemoryWait executes one dispatched query, converting transient
// memory exhaustion into queueing: on ErrMemoryExceeded while someone else
// holds tracked memory, the query waits for the next release and retries
// instead of failing. Two invariants make this safe:
//
//   - No missed wakeups: the release channel is taken BEFORE each attempt,
//     so a release landing during the attempt satisfies the ensuing wait.
//   - Progress: retries are serialized through retryMu, so a retrying
//     query effectively runs alone among retriers — two queries that each
//     fit the budget alone but not together cannot keep failing each
//     other. A query whose failed reservation would not fit even with the
//     pool to itself cannot be helped by waiting and fails with the
//     engine's error. The test reads the error, not the pool: the pool
//     can empty between the failure and any later look at it, and an
//     attempt's own teardown fires the release channel too.
func (s *Server) runWithMemoryWait(it *item) (*engine.Result, error) {
	pool := s.eng.MemPool()
	res, err := s.eng.QueryAs(it.ctx, it.tenant, it.sql)
	if err == nil || !errors.Is(err, engine.ErrMemoryExceeded) {
		return res, err
	}
	s.retryMu.Lock()
	defer s.retryMu.Unlock()
	for {
		relCh := pool.ReleaseWait()
		res, err = s.eng.QueryAs(it.ctx, it.tenant, it.sql)
		if err == nil || !errors.Is(err, engine.ErrMemoryExceeded) {
			return res, err
		}
		if !fitsAlone(err) {
			return nil, err
		}
		select {
		case <-relCh:
		case <-it.ctx.Done():
			return nil, err
		}
	}
}

// fitsAlone reports whether a failed reservation would have fit had the
// query held the pool alone: the bytes it asked for plus the bytes it held
// stay within the limit, so someone else's memory made it fail.
func fitsAlone(err error) bool {
	var me *memctl.MemoryExceededError
	if !errors.As(err, &me) {
		return false
	}
	need := me.Requested
	for _, b := range me.Held {
		need += b
	}
	return need <= me.Limit
}
