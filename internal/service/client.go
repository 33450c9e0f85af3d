package service

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sync"

	"repro/internal/types"
)

// Client is the driver side of the wire protocol. It is safe for
// concurrent use: queries may be issued from many goroutines over one
// connection (pipelined; responses are matched by ID), which is how a
// load generator makes one connection participate in shared-execution
// batches.
type Client struct {
	conn net.Conn

	wmu sync.Mutex // serializes request writes

	mu      sync.Mutex
	nextID  int64
	pending map[int64]chan *Response
	readErr error
	closed  bool
}

// ClientResult is a query result decoded from the wire — rows are
// byte-identical to the engine's in-process result.
type ClientResult struct {
	Columns []string
	Rows    [][]types.Value
	Metrics ResultMetrics
}

// Dial connects to a NetServer.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{conn: conn, pending: make(map[int64]chan *Response)}
	go c.readLoop()
	return c, nil
}

// Close tears the connection down; outstanding queries fail.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	return c.conn.Close()
}

func (c *Client) readLoop() {
	r := bufio.NewReader(c.conn)
	var err error
	for {
		var line []byte
		line, err = r.ReadBytes('\n')
		if err != nil {
			break
		}
		var resp Response
		if jerr := json.Unmarshal(line, &resp); jerr != nil {
			err = fmt.Errorf("service: bad response line: %w", jerr)
			break
		}
		c.mu.Lock()
		ch := c.pending[resp.ID]
		delete(c.pending, resp.ID)
		c.mu.Unlock()
		if ch != nil {
			ch <- &resp
		}
	}
	c.mu.Lock()
	c.readErr = err
	for id, ch := range c.pending {
		close(ch)
		delete(c.pending, id)
	}
	c.mu.Unlock()
}

// roundTrip sends req and waits for its response.
func (c *Client) roundTrip(ctx context.Context, req *Request) (*Response, error) {
	ch := make(chan *Response, 1)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, fmt.Errorf("service: client closed")
	}
	c.nextID++
	req.ID = c.nextID
	c.pending[req.ID] = ch
	c.mu.Unlock()

	b, err := marshalLine(req)
	if err != nil {
		return nil, err
	}
	c.wmu.Lock()
	_, err = c.conn.Write(b)
	c.wmu.Unlock()
	if err != nil {
		c.mu.Lock()
		delete(c.pending, req.ID)
		c.mu.Unlock()
		return nil, fmt.Errorf("service: send: %w", err)
	}
	select {
	case resp, ok := <-ch:
		if !ok {
			c.mu.Lock()
			rerr := c.readErr
			c.mu.Unlock()
			if rerr == nil {
				rerr = fmt.Errorf("connection closed")
			}
			return nil, fmt.Errorf("service: %w", rerr)
		}
		return resp, nil
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.pending, req.ID)
		c.mu.Unlock()
		return nil, ctx.Err()
	}
}

// Hello declares the connection's tenant for all later queries.
func (c *Client) Hello(ctx context.Context, tenant string) error {
	resp, err := c.roundTrip(ctx, &Request{Op: "hello", Tenant: tenant})
	if err != nil {
		return err
	}
	if !resp.OK {
		return kindErr(resp.Kind, resp.Err)
	}
	return nil
}

// Ping round-trips a no-op (liveness check).
func (c *Client) Ping(ctx context.Context) error {
	resp, err := c.roundTrip(ctx, &Request{Op: "ping"})
	if err != nil {
		return err
	}
	if !resp.OK {
		return kindErr(resp.Kind, resp.Err)
	}
	return nil
}

// Query runs sql under the connection's tenant (or tenant overrides for
// this call when non-empty via QueryAs). Scheduling errors map back to the
// package sentinels: errors.Is(err, ErrQueueFull) works across the wire.
func (c *Client) Query(ctx context.Context, sql string) (*ClientResult, error) {
	return c.QueryAs(ctx, "", sql)
}

// Ingest appends rows to table on the server, returning once they are
// durably published (subsequent queries on any connection see them).
func (c *Client) Ingest(ctx context.Context, table string, rows [][]types.Value) error {
	resp, err := c.roundTrip(ctx, &Request{Op: "ingest", Table: table, Rows: encodeRows(rows)})
	if err != nil {
		return err
	}
	if !resp.OK {
		return kindErr(resp.Kind, resp.Err)
	}
	if resp.Appended != int64(len(rows)) {
		return fmt.Errorf("service: ingest acknowledged %d of %d rows", resp.Appended, len(rows))
	}
	return nil
}

// QueryAs is Query with a per-call tenant override.
func (c *Client) QueryAs(ctx context.Context, tenant, sql string) (*ClientResult, error) {
	resp, err := c.roundTrip(ctx, &Request{Op: "query", Tenant: tenant, SQL: sql})
	if err != nil {
		return nil, err
	}
	if !resp.OK {
		return nil, kindErr(resp.Kind, resp.Err)
	}
	var rows [][]types.Value
	if resp.Block != nil {
		var width int
		if rows, width, err = decodeBlock(resp.Block); err != nil {
			return nil, err
		}
		if width != len(resp.Columns) {
			return nil, fmt.Errorf("service: result block is %d values wide for %d columns", width, len(resp.Columns))
		}
	}
	res := &ClientResult{Columns: resp.Columns, Rows: rows}
	if resp.Metrics != nil {
		res.Metrics = *resp.Metrics
	}
	return res, nil
}
