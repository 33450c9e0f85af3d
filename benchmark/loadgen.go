package benchmark

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/engine"
	"repro/internal/service"
	"repro/internal/types"
)

// reply is what a statement returned, over the wire or in process.
type reply struct {
	rows    [][]types.Value
	scanned int64           // logical bytes billed (ResultMetrics.BytesScanned)
	metrics *engine.Metrics // in-process only: the engine's own counters
}

// conn is one client connection: the wire client in untraced runs, a direct
// call into service.Server in the traced replay.
type conn interface {
	query(ctx context.Context, id, sql string) (reply, error)
	ingest(ctx context.Context, id string, rows [][]types.Value) error
}

type wireConn struct{ c *service.Client }

func (w wireConn) query(ctx context.Context, _, sql string) (reply, error) {
	res, err := w.c.Query(ctx, sql)
	if err != nil {
		return reply{}, err
	}
	return reply{rows: res.Rows, scanned: res.Metrics.BytesScanned}, nil
}

func (w wireConn) ingest(ctx context.Context, _ string, rows [][]types.Value) error {
	return w.c.Ingest(ctx, ingestTable, rows)
}

// digest is the fingerprint answers are compared by: every byte of every
// value, float bits included.
type digest [16]byte

func digestRows(rows [][]types.Value) digest {
	h := fnv.New128a()
	var buf [18]byte
	for _, row := range rows {
		for _, v := range row {
			buf[0] = byte(v.Kind)
			buf[1] = 0
			if v.Null {
				buf[1] = 1
			}
			binary.LittleEndian.PutUint64(buf[2:], uint64(v.I))
			binary.LittleEndian.PutUint64(buf[10:], math.Float64bits(v.F))
			h.Write(buf[:])
			binary.LittleEndian.PutUint64(buf[:8], uint64(len(v.S)))
			h.Write(buf[:8])
			h.Write([]byte(v.S))
		}
		h.Write([]byte{0xff}) // row boundary
	}
	var d digest
	h.Sum(d[:0])
	return d
}

// obs is one completed statement as the load generator saw it.
type obs struct {
	id         string
	sql        string // "" for an ingest
	start, end time.Time
	err        error
	sum        digest
	nrows      int
	scanned    int64
	// lo..hi is the range of append counts the answer may reflect: batches
	// acknowledged before the statement was sent through batches issued
	// before its answer arrived.
	lo, hi  int
	metrics *engine.Metrics
}

func (o obs) latency() time.Duration { return o.end.Sub(o.start) }

// session drives one workload against one set of connections.
type session struct {
	w     *workload
	src   *source
	conns []conn
	seed  int64
	data  dataInfo
	// period is the open loop's burst period.
	period time.Duration

	next          []int // closed loop: next row per client; open loop: next[0] is the next burst
	issued, acked atomic.Int64
	done          atomic.Int64 // queries answered, by every client
}

// mark is the state at a round boundary of client 0 (a burst's due time in
// the open loop): throughput and CPU per query are taken between marks, so
// that a noisy stretch of the box moves one group of rounds and not the run.
type mark struct {
	at   time.Time
	cpu  time.Duration
	done int64
}

func (s *session) mark() mark { return mark{at: time.Now(), cpu: cpuTime(), done: s.done.Load()} }

func newSession(w *workload, seed int64, data dataInfo, conns []conn, period time.Duration) (*session, error) {
	gen, err := w.newGen(seed, data)
	if err != nil {
		return nil, err
	}
	n := w.slots(len(conns))
	return &session{
		w: w, conns: conns, seed: seed, data: data, period: period,
		src:  &source{width: n, gen: gen},
		next: make([]int, n),
	}, nil
}

// phase is what one stretch of driving produced.
type phase struct {
	queries []obs
	ingests []obs
	rounds  []time.Duration // whole rounds: closed-loop rounds or bursts
	marks   []mark
	// Open loop only: bursts sent later than the tolerance, bursts sent, and
	// bursts still unanswered when the window closed.
	late, bursts, backlog int
}

// run drives the workload for about d. With whole set, the closed loop ends
// every client on a round boundary (the round nearest to d), so that every
// run measures the same mix of statements; warm-up passes false and stops at
// the first statement boundary past d.
func (s *session) run(ctx context.Context, d time.Duration, whole bool) *phase {
	if s.w.open {
		return s.runOpen(ctx, d)
	}
	return s.runClosed(ctx, d, whole)
}

func (s *session) one(ctx context.Context, c conn, id, sql string, start time.Time) obs {
	o := obs{id: id, sql: sql, start: start, lo: int(s.acked.Load())}
	rep, err := c.query(ctx, id, sql)
	o.end = time.Now()
	s.done.Add(1)
	o.hi = int(s.issued.Load())
	o.err = err
	if err == nil {
		o.sum, o.nrows, o.scanned, o.metrics = digestRows(rep.rows), len(rep.rows), rep.scanned, rep.metrics
	}
	return o
}

// ingestOne sends the next append batch. Batches are numbered in issue
// order and must be sent one at a time, so that the reference store can
// replay them in the same order.
func (s *session) ingestOne(ctx context.Context, c conn) obs {
	k := int(s.issued.Add(1)) - 1
	rows := ingestBatch(s.seed, s.data, k)
	o := obs{id: stmtID(s.w.name, "ingest", k), start: time.Now(), nrows: len(rows)}
	o.err = c.ingest(ctx, o.id, rows)
	o.end = time.Now()
	s.acked.Add(1)
	return o
}

func (s *session) runClosed(ctx context.Context, d time.Duration, whole bool) *phase {
	clients := len(s.next)
	parts := make([]phase, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p, cn := &parts[c], s.conns[c%len(s.conns)]
			var roundSum time.Duration
			for {
				if c == 0 {
					p.marks = append(p.marks, s.mark())
				}
				elapsed := time.Since(start)
				if elapsed >= d {
					return
				}
				if n := len(p.rounds); whole && n > 0 && elapsed+roundSum/time.Duration(2*n) >= d {
					return
				}
				roundStart := time.Now()
				for i := 0; i < s.w.round; i++ {
					row := s.next[c]
					s.next[c]++
					o := s.one(ctx, cn, stmtID(s.w.name, c, row), s.src.at(row, c), time.Now())
					p.queries = append(p.queries, o)
					if e := s.w.ingestEvery; c == 0 && e > 0 && s.next[0]%e == e/10 {
						p.ingests = append(p.ingests, s.ingestOne(ctx, cn))
					}
					if !whole && time.Since(start) >= d {
						return
					}
				}
				dur := time.Since(roundStart)
				p.rounds = append(p.rounds, dur)
				roundSum += dur
			}
		}(c)
	}
	wg.Wait()
	out := &phase{}
	for i := range parts {
		out.queries = append(out.queries, parts[i].queries...)
		out.ingests = append(out.ingests, parts[i].ingests...)
		out.rounds = append(out.rounds, parts[i].rounds...)
	}
	out.marks = parts[0].marks
	return out
}

func (s *session) runOpen(ctx context.Context, d time.Duration) *phase {
	out, start := &phase{}, time.Now()
	lateTol := s.period / 20
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		inflight atomic.Int64
	)
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * s.period)
		if due.Sub(start) >= d {
			break
		}
		time.Sleep(time.Until(due))
		out.marks = append(out.marks, s.mark())
		if time.Since(due) > lateTol {
			out.late++
		}
		out.bursts++
		burst := s.next[0]
		s.next[0]++
		inflight.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			tiles := make([]obs, s.w.round)
			var twg sync.WaitGroup
			for t := range tiles {
				twg.Add(1)
				go func(t int) {
					defer twg.Done()
					tiles[t] = s.one(ctx, s.conns[t%len(s.conns)], stmtID(s.w.name, t, burst), s.src.at(burst, t), due)
				}(t)
			}
			twg.Wait()
			inflight.Add(-1)
			mu.Lock()
			out.queries = append(out.queries, tiles...)
			out.rounds = append(out.rounds, time.Since(due))
			mu.Unlock()
		}()
	}
	time.Sleep(time.Until(start.Add(d)))
	out.backlog = int(inflight.Load())
	wg.Wait()
	out.marks = append(out.marks, s.mark())
	return out
}
