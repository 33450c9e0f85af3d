package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/engine"
	"repro/internal/service"
	"repro/internal/tpcds"
)

// serveConfig is the engine `athenalite serve` runs: the paper's fusion
// rules under every cross-query layer. Which layers are on is not a flag —
// the benchmark (benchmark/stack.go) measures exactly this assembly.
func serveConfig(window time.Duration, rescache, memLimit int64, spillDir string) engine.Config {
	return engine.Config{
		EnableFusion:     true,
		ShareExec:        true,
		AdmissionWindow:  window,
		ShareScans:       true,
		ResultCacheBytes: rescache,
		MemoryLimitBytes: memLimit,
		SpillDir:         spillDir,
	}
}

// serveMain is `athenalite serve`: load the dataset once, open one resident
// ShareExec engine, and put the multi-tenant service's wire front end on a
// TCP address. SIGINT/SIGTERM triggers a graceful drain: queued and running
// queries finish, new ones are rejected, then the engine shuts down.
func serveMain(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	var (
		addr       = fs.String("addr", "127.0.0.1:4141", "listen address")
		scale      = fs.Float64("scale", 0.1, "data scale factor")
		window     = fs.Duration("window", 25*time.Millisecond, "shared-execution admission window")
		queueDepth = fs.Int("queue", 256, "global admission queue depth")
		tenantConc = fs.Int("tenant-concurrency", 4, "max concurrent queries per tenant")
		tenantMem  = fs.Int64("tenant-memory", 0, "per-tenant memory budget in bytes (0 = uncapped)")
		memLimit   = fs.Int64("memlimit", 0, "engine memory limit in bytes (0 = unlimited)")
		qtimeout   = fs.Duration("queue-timeout", 30*time.Second, "max time a query may wait in the queue")
		rescache   = fs.Int64("rescache", 64<<20, "semantic result-cache budget in bytes (0 = off)")
	)
	fs.Parse(args)

	fmt.Fprintf(os.Stderr, "loading TPC-DS data at scale %.2f...\n", *scale)
	st, err := tpcds.NewLoadedStore(*scale, 42)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var spillDir string
	if *memLimit > 0 {
		spillDir, err = os.MkdirTemp("", "athenalite-spill-")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer os.RemoveAll(spillDir)
	}
	eng := engine.OpenWithStore(st, serveConfig(*window, *rescache, *memLimit, spillDir))
	srv := service.New(eng, service.Config{
		QueueDepth:        *queueDepth,
		TenantConcurrency: *tenantConc,
		TenantMemoryBytes: *tenantMem,
		QueueTimeout:      *qtimeout,
	})
	ns := service.NewNetServer(srv)
	if err := ns.Listen(*addr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("athenalite service listening on %s (window %v, queue %d, tenant concurrency %d)\n",
		ns.Addr(), *window, *queueDepth, *tenantConc)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(os.Stderr, "draining...")
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := ns.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "drain:", err)
	}
	if err := eng.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "engine close:", err)
	}
	stats := srv.Stats()
	fmt.Fprintf(os.Stderr, "served %d queries (%d rejected)\n", stats.Completed, stats.Rejected)
}

// clientMain is `athenalite client`: an interactive shell whose statements
// travel over the wire protocol to a running `athenalite serve`.
func clientMain(args []string) {
	fs := flag.NewFlagSet("client", flag.ExitOnError)
	var (
		addr   = fs.String("addr", "127.0.0.1:4141", "server address")
		tenant = fs.String("tenant", "", "tenant name for this connection")
	)
	fs.Parse(args)

	cl, err := service.Dial(*addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer cl.Close()
	ctx := context.Background()
	if *tenant != "" {
		if err := cl.Hello(ctx, *tenant); err != nil {
			fmt.Fprintln(os.Stderr, "hello:", err)
			os.Exit(1)
		}
	}
	fmt.Printf("connected to %s", *addr)
	if *tenant != "" {
		fmt.Printf(" as tenant %q", *tenant)
	}
	fmt.Println(". End statements with ';', \\quit to exit.")

	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var pending strings.Builder
	prompt := func() {
		if pending.Len() == 0 {
			fmt.Print("sql> ")
		} else {
			fmt.Print("...> ")
		}
	}
	prompt()
	for scanner.Scan() {
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		if pending.Len() == 0 && strings.HasPrefix(trimmed, "\\") {
			if trimmed == "\\quit" || trimmed == "\\q!" || trimmed == "\\exit" {
				return
			}
			fmt.Printf("unknown command %s\n", trimmed)
			prompt()
			continue
		}
		pending.WriteString(line)
		pending.WriteByte('\n')
		if strings.Contains(line, ";") {
			stmt := strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(pending.String()), ";"))
			pending.Reset()
			if stmt != "" {
				runRemote(ctx, cl, stmt)
			}
		}
		prompt()
	}
}

func runRemote(ctx context.Context, cl *service.Client, stmt string) {
	start := time.Now()
	res, err := cl.Query(ctx, stmt)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(strings.Join(res.Columns, " | "))
	limit := len(res.Rows)
	if limit > 50 {
		limit = 50
	}
	for _, row := range res.Rows[:limit] {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = v.String()
		}
		fmt.Println(strings.Join(parts, " | "))
	}
	if len(res.Rows) > limit {
		fmt.Printf("... (%d more rows)\n", len(res.Rows)-limit)
	}
	fmt.Printf("-- %d rows, %v round-trip, %d bytes scanned", len(res.Rows),
		time.Since(start).Round(10*time.Microsecond), res.Metrics.BytesScanned)
	if res.Metrics.BatchedQueries > 1 {
		fmt.Printf(", batched with %d queries (fused %d)",
			res.Metrics.BatchedQueries-1, res.Metrics.FusedPlans)
	}
	fmt.Println()
}
