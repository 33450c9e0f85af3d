package service

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"

	"repro/engine"
)

// NetServer exposes a Server over TCP with the line-JSON wire protocol.
// Connections may pipeline: each request is handled in its own goroutine
// and responses (matched by ID) are written as they complete, so queries
// from one connection can land in the same dispatch round as queries from
// another — the service-fed path into cross-query shared execution.
type NetServer struct {
	srv *Server

	mu       sync.Mutex
	lis      net.Listener
	handlers map[*connHandler]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// NewNetServer wraps srv for network serving.
func NewNetServer(srv *Server) *NetServer {
	return &NetServer{srv: srv, handlers: make(map[*connHandler]struct{})}
}

// Addr reports the bound listen address (valid after Serve/Listen starts).
func (ns *NetServer) Addr() net.Addr {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if ns.lis == nil {
		return nil
	}
	return ns.lis.Addr()
}

// Listen binds addr and starts accepting in a background goroutine,
// returning once the listener is bound (so Addr is valid).
func (ns *NetServer) Listen(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	ns.mu.Lock()
	if ns.closed {
		ns.mu.Unlock()
		lis.Close()
		return ErrClosed
	}
	ns.lis = lis
	ns.mu.Unlock()
	ns.wg.Add(1)
	go ns.acceptLoop(lis)
	return nil
}

func (ns *NetServer) acceptLoop(lis net.Listener) {
	defer ns.wg.Done()
	for {
		conn, err := lis.Accept()
		if err != nil {
			return // listener closed (Shutdown) or fatal
		}
		h := &connHandler{ns: ns, conn: conn, tenant: ""}
		ns.mu.Lock()
		if ns.closed {
			ns.mu.Unlock()
			conn.Close()
			return
		}
		ns.handlers[h] = struct{}{}
		ns.mu.Unlock()
		ns.wg.Add(1)
		go h.run()
	}
}

// Shutdown drains gracefully: stop accepting, let the service drain every
// queued and in-flight query (their responses are written to their
// connections), then close connections. If ctx expires first, queued
// queries fail with ErrClosed and connections close immediately.
func (ns *NetServer) Shutdown(ctx context.Context) error {
	ns.mu.Lock()
	ns.closed = true
	lis := ns.lis
	ns.mu.Unlock()
	if lis != nil {
		lis.Close()
	}
	err := ns.srv.Shutdown(ctx)
	// After a clean drain every Submit has returned; wait for each
	// connection's response writes to land before cutting it.
	ns.mu.Lock()
	handlers := make([]*connHandler, 0, len(ns.handlers))
	for h := range ns.handlers {
		handlers = append(handlers, h)
	}
	ns.mu.Unlock()
	for _, h := range handlers {
		if err == nil {
			h.reqs.Wait()
		}
		h.conn.Close()
	}
	ns.wg.Wait()
	return err
}

// connHandler serves one connection.
type connHandler struct {
	ns   *NetServer
	conn net.Conn

	wmu    sync.Mutex // serializes response writes
	tmu    sync.Mutex // guards tenant
	tenant string
	reqs   sync.WaitGroup
}

func (h *connHandler) run() {
	defer h.ns.wg.Done()
	defer func() {
		h.reqs.Wait()
		h.conn.Close()
		h.ns.mu.Lock()
		delete(h.ns.handlers, h)
		h.ns.mu.Unlock()
	}()
	r := bufio.NewReader(h.conn)
	for {
		line, err := r.ReadBytes('\n')
		if err != nil {
			return // EOF or connection cut
		}
		var req Request
		if err := json.Unmarshal(line, &req); err != nil {
			h.write(&Response{ID: req.ID, Err: fmt.Sprintf("bad request: %v", err)})
			continue
		}
		switch req.Op {
		case "hello":
			h.tmu.Lock()
			h.tenant = req.Tenant
			h.tmu.Unlock()
			h.write(&Response{ID: req.ID, OK: true})
		case "ping":
			h.write(&Response{ID: req.ID, OK: true})
		case "query":
			h.reqs.Add(1)
			go func(req Request) {
				defer h.reqs.Done()
				h.query(req)
			}(req)
		case "ingest":
			h.reqs.Add(1)
			go func(req Request) {
				defer h.reqs.Done()
				h.ingest(req)
			}(req)
		default:
			h.write(&Response{ID: req.ID, Err: fmt.Sprintf("unknown op %q", req.Op)})
		}
	}
}

func (h *connHandler) query(req Request) {
	h.tmu.Lock()
	tenant := h.tenant
	h.tmu.Unlock()
	if req.Tenant != "" {
		tenant = req.Tenant
	}
	res, err := h.ns.srv.Submit(context.Background(), tenant, req.SQL)
	if err != nil {
		h.write(&Response{ID: req.ID, Err: err.Error(), Kind: errKind(err)})
		return
	}
	block, err := encodeBlock(len(res.Columns), res.Rows)
	if err != nil {
		h.write(&Response{ID: req.ID, Err: err.Error()})
		return
	}
	h.write(&Response{
		ID:      req.ID,
		OK:      true,
		Columns: res.Columns,
		Block:   block,
		Metrics: &ResultMetrics{
			BytesScanned:    res.Metrics.Storage.BytesScanned,
			RowsProcessed:   res.Metrics.RowsProcessed,
			BatchedQueries:  res.Metrics.SharedExec.BatchedQueries,
			FusedPlans:      res.Metrics.SharedExec.FusedPlans,
			ResultCacheHits: res.Metrics.ResultCache.Hits,
		},
	})
}

// ingest decodes an append request's rows and publishes them through the
// engine, invalidating the affected result-cache entries as a side effect.
func (h *connHandler) ingest(req Request) {
	rows, err := decodeRows(req.Rows)
	if err != nil {
		h.write(&Response{ID: req.ID, Err: err.Error()})
		return
	}
	if err := h.ns.srv.Ingest(req.Table, rows); err != nil {
		h.write(&Response{ID: req.ID, Err: err.Error(), Kind: errKind(err)})
		return
	}
	h.write(&Response{ID: req.ID, OK: true, Appended: int64(len(rows))})
}

// errKind classifies scheduling errors so remote clients can map them back
// to sentinels.
func errKind(err error) string {
	switch {
	case errors.Is(err, ErrQueueFull):
		return "queue_full"
	case errors.Is(err, ErrQueueTimeout):
		return "queue_timeout"
	case errors.Is(err, ErrClosed), errors.Is(err, engine.ErrEngineClosed):
		return "closed"
	default:
		return ""
	}
}

// kindErr is errKind's client-side inverse.
func kindErr(kind, text string) error {
	switch kind {
	case "queue_full":
		return fmt.Errorf("%s: %w", text, ErrQueueFull)
	case "queue_timeout":
		return fmt.Errorf("%s: %w", text, ErrQueueTimeout)
	case "closed":
		return fmt.Errorf("%s: %w", text, ErrClosed)
	default:
		return errors.New(text)
	}
}

func (h *connHandler) write(resp *Response) {
	b, err := marshalLine(resp)
	if err != nil {
		b, _ = marshalLine(&Response{ID: resp.ID, Err: fmt.Sprintf("encode: %v", err)})
	}
	h.wmu.Lock()
	_, _ = h.conn.Write(b)
	h.wmu.Unlock()
}
