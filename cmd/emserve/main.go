// Command emserve runs the EM-analysis job service: an HTTP/JSON API that
// accepts power-grid analysis jobs (inline SPICE decks or synthetic-grid
// specs plus engine/Monte-Carlo options), executes them through the
// pdn/mc engines behind a bounded queue, and serves content-addressed
// result manifests.
//
//	emserve -addr localhost:8415 -queue 8 -job-workers 4 -resultdir results/
//
// Endpoints:
//
//	POST /v1/jobs               submit a job spec (202 queued, 200 dedup'd,
//	                            429 queue full, 503 draining)
//	GET  /v1/jobs/{id}          job status with live trial progress
//	GET  /v1/jobs/{id}/events   Server-Sent-Events cascade stream
//	GET  /v1/jobs/{id}/timeline per-job stage timeline (admit → queue-wait
//	                            → resolve → compile → factorize → screen →
//	                            mc → manifest)
//	GET  /v1/jobs/{id}/result   canonical result manifest (504 after a
//	                            job deadline, with partial progress in
//	                            the status endpoint)
//	POST /v1/shards             execute one trial-range shard of a job
//	                            (fleet-internal: coordinators dispatch here)
//	GET/PUT /v1/partials/...    the content-addressed partial-manifest cache
//	/status, /metrics,          the monitor endpoints (JSON status and
//	/debug/vars, /debug/pprof   Prometheus exposition), on the same listener
//
// With -shards K > 1 each Monte-Carlo job's trial range is split into K
// contiguous shards, dispatched to the -workers fleet (or a local executor
// pool when none are configured) and merged into a result manifest that is
// byte-identical to the single-process run:
//
//	emserve -addr :8416 &                         # worker 1
//	emserve -addr :8417 &                         # worker 2
//	emserve -addr :8415 -shards 4 \
//	        -workers localhost:8416,localhost:8417 \
//	        -advertise http://localhost:8415      # coordinator
//
// SIGINT/SIGTERM drains gracefully: new submissions are rejected with 503
// while admitted jobs run to completion (bounded by -drain-timeout).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"emvia/internal/monitor"
	"emvia/internal/serve"
	"emvia/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "emserve:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "localhost:8415", "listen address (use :0 for an ephemeral port)")
	queueCap := flag.Int("queue", 8, "admission queue capacity (further submissions get 429)")
	jobWorkers := flag.Int("job-workers", 1, "Monte-Carlo worker budget per job (wall-clock only; results are worker-count invariant)")
	jobTimeout := flag.Duration("job-timeout", 5*time.Minute, "default per-job execution deadline (specs may set a shorter timeout_seconds)")
	resultDir := flag.String("resultdir", "", "persist result manifests here (content-addressed; empty = memory only)")
	ledgerPath := flag.String("ledger", "", "append one JSONL record per terminal job here (empty = <resultdir>/ledger.jsonl when -resultdir is set; \"-\" disables)")
	ringSize := flag.Int("ring", 1024, "trace ring capacity (live progress and SSE window)")
	drainTimeout := flag.Duration("drain-timeout", 60*time.Second, "bound on graceful drain at shutdown")
	shards := flag.Int("shards", 0, "split each Monte-Carlo job into this many trial-range shards (0/1 = no sharding); merged manifests are byte-identical to single-process runs")
	workers := flag.String("workers", "", "comma-separated worker emserve addresses (host:port or URLs) to dispatch shards to; empty with -shards > 1 runs shards in a local executor pool")
	shardSlots := flag.Int("shard-slots", 2, "concurrently executing inbound shard requests (the worker side of dispatch)")
	shardTimeout := flag.Duration("shard-timeout", 60*time.Second, "per-attempt bound on one remote shard dispatch; expiry re-issues the shard to the next worker")
	shardAttempts := flag.Int("shard-attempts", 3, "dispatch attempts per shard including the final always-local run")
	advertise := flag.String("advertise", "", "this coordinator's externally reachable base URL; workers replicate partial manifests through it (empty = no cache replication)")
	flag.Parse()

	// Install the trace ring before NewServer so the server adopts it; the
	// same ring feeds job progress, SSE streams and the monitor /status.
	ring := trace.NewRing(*ringSize)
	trace.SetDefault(trace.New(trace.Options{Ring: ring, DisableSamples: true}))

	var shardWorkers []string
	for _, w := range strings.Split(*workers, ",") {
		if w = strings.TrimSpace(w); w != "" {
			shardWorkers = append(shardWorkers, w)
		}
	}

	srv := serve.NewServer(serve.Config{
		QueueCap:       *queueCap,
		JobWorkers:     *jobWorkers,
		DefaultTimeout: *jobTimeout,
		ResultDir:      *resultDir,
		LedgerPath:     *ledgerPath,
		Shards:         *shards,
		ShardWorkers:   shardWorkers,
		ShardSlots:     *shardSlots,
		ShardTimeout:   *shardTimeout,
		ShardAttempts:  *shardAttempts,
		AdvertiseURL:   *advertise,
	})

	mux := http.NewServeMux()
	mux.Handle("/v1/", srv.Handler())
	monitor.Register(mux, monitor.Options{Ring: srv.Ring()})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	log.Printf("emserve: listening on http://%s", ln.Addr())
	go httpSrv.Serve(ln) //nolint:errcheck // Serve always returns on Shutdown/Close

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	stop()

	// Drain first — admission flips to 503 immediately, admitted jobs run to
	// completion — then shut the listener down so in-flight HTTP responses
	// (result fetches, SSE streams) get their bounded grace period too.
	log.Printf("emserve: draining (up to %s)", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := srv.Drain(drainCtx)

	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		httpSrv.Close() //nolint:errcheck // hard close after a stuck graceful shutdown
	}
	if drainErr != nil {
		return drainErr
	}
	log.Printf("emserve: drained, bye")
	return nil
}
