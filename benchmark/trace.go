package benchmark

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/service"
	"repro/internal/types"
)

// Span is one timed call into a layer. Spans of one statement share Stmt;
// Parent is the ID of the span that caused this one (0 for a root). Times
// are nanoseconds since the tracer was created.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Stmt   string `json:"stmt"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(name, stmt string, parent int) int {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Name: name, Stmt: stmt, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// durations returns the duration of every span with the given name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

func total(ds []time.Duration) time.Duration {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum
}

// SelfTimes returns each span's self time by ID: its duration minus the part
// of its interval that its child spans cover (overlapping children are
// counted once, and a child is clipped to its parent).
func SelfTimes(spans []Span) map[int]int64 {
	children := map[int][]Span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, at := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, at), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// writeJSONL writes the spans, one JSON object per line, each with its self
// time.
func (t *tracer) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	self := SelfTimes(t.spans)
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		line := struct {
			Span
			Self int64 `json:"self_ns"`
		}{s, self[s.ID]}
		if err := enc.Encode(line); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// localConn is the traced replay's connection: the same statements enter
// service.Server directly, one root span per statement with the service
// call as its child, and the engine's whole result stays visible.
type localConn struct {
	srv    *service.Server
	tenant string
	tr     *tracer
}

func (l localConn) query(ctx context.Context, id, sql string) (reply, error) {
	root := l.tr.begin("stmt", id, 0)
	defer l.tr.end(root)
	sub := l.tr.begin("service.submit", id, root)
	res, err := l.srv.Submit(ctx, l.tenant, sql)
	l.tr.end(sub)
	if err != nil {
		return reply{}, err
	}
	m := res.Metrics // a copy: a pointer into res would keep its rows alive until the run ends
	return reply{rows: res.Rows, scanned: m.Storage.BytesScanned, metrics: &m}, nil
}

func (l localConn) ingest(_ context.Context, id string, rows [][]types.Value) error {
	root := l.tr.begin("stmt", id, 0)
	defer l.tr.end(root)
	sub := l.tr.begin("service.ingest", id, root)
	defer l.tr.end(sub)
	return l.srv.Ingest(ingestTable, rows)
}

func stmtID(workload string, slot any, n int) string {
	return fmt.Sprintf("%s/%v/%d", workload, slot, n)
}
