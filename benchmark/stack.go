// Package benchmark is the repository's one benchmark: it builds the product
// stack through public constructors only, drives it over loopback TCP from a
// load generator in the same process, checks every answer against a
// reference engine, and reports end-to-end metrics (untraced run) or
// per-layer metrics (traced run). See README.md for definitions.
package benchmark

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/engine"
	"repro/internal/service"
	"repro/internal/storage"
	"repro/internal/tpcds"
)

const (
	// DefaultScale is the TPC-DS scale every committed number is taken at:
	// the five fact tables decode to about twice the 64 MiB chunk cache, so
	// paper_solo runs larger than the program's cache while the panels of
	// repeat_ingest fit, and paper_solo still gets nine rounds into 15 s.
	DefaultScale = 2
	// dataSeed seeds the data generator; the workload seed never touches
	// the data, only the traffic.
	dataSeed = 42
)

// stackConfig is the one engine configuration every workload runs under:
// `athenalite serve`'s assembly plus the paper's fusion rules.
func stackConfig() engine.Config {
	return engine.Config{
		EnableFusion:     true,
		ShareExec:        true,
		AdmissionWindow:  25 * time.Millisecond,
		ShareScans:       true,
		ResultCacheBytes: 64 << 20,
	}
}

// referenceConfig is the answer oracle: serial, no fusion, sharing or cache.
func referenceConfig() engine.Config { return engine.Config{Parallelism: 1} }

// isolationConfig is the T2 engine: the fusion rules without any
// cross-query layer, so one statement's cost is its own.
func isolationConfig() engine.Config { return engine.Config{EnableFusion: true} }

// connections is the number of client connections (one tenant each); extra
// in-flight statements are pipelined on them.
func connections() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// stack is the system under test, from store to listening socket.
type stack struct {
	store *storage.Store
	eng   *engine.Engine
	srv   *service.Server
	net   *service.NetServer
	conns []*service.Client
}

// newStack loads the data, opens the engine behind the service, listens on
// loopback, and connects and greets every client. It returns once a
// statement has travelled the whole path on each connection.
func newStack(scale float64) (*stack, error) {
	st, err := tpcds.NewLoadedStore(scale, dataSeed)
	if err != nil {
		return nil, err
	}
	s := &stack{store: st}
	s.eng = engine.OpenWithStore(st, stackConfig())
	s.srv = service.New(s.eng, service.Config{QueueDepth: 256, TenantConcurrency: 4})
	s.net = service.NewNetServer(s.srv)
	if err := s.net.Listen("127.0.0.1:0"); err != nil {
		return nil, err
	}
	ctx := context.Background()
	for i := 0; i < connections(); i++ {
		c, err := service.Dial(s.net.Addr().String())
		if err != nil {
			s.close()
			return nil, err
		}
		s.conns = append(s.conns, c)
		if err := c.Hello(ctx, tenantName(i)); err != nil {
			s.close()
			return nil, err
		}
		if _, err := c.Query(ctx, "SELECT COUNT(*) AS n FROM reason"); err != nil {
			s.close()
			return nil, fmt.Errorf("benchmark: first statement on connection %d: %w", i, err)
		}
	}
	return s, nil
}

func tenantName(i int) string { return fmt.Sprintf("tenant%d", i) }

// close drains the service and the engine and closes the connections.
func (s *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_ = s.net.Shutdown(ctx) // a drain that times out still closes below
	for _, c := range s.conns {
		_ = c.Close()
	}
	_ = s.eng.Close()
}
