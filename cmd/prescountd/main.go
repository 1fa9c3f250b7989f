// Command prescountd is the PresCount compile daemon: a long-running HTTP
// service that runs the Figure-4 register-allocation pipeline on demand.
//
// Usage:
//
//	prescountd [flags]
//
//	-addr A          listen address (default :8135)
//	-inflight N      max concurrently executing compiles (default GOMAXPROCS)
//	-queue N         max requests waiting behind them (default 4*inflight);
//	                 beyond this the daemon answers 429 with Retry-After
//	-deadline D      default per-request deadline (default 10s)
//	-max-deadline D  cap on client-requested timeout_ms (default 60s)
//	-cache-bytes N   compile cache byte cap with LRU eviction
//	                 (default 256 MiB; 0 = unlimited, the CLI policy)
//	-workers N       per-request module compile fan-out (default GOMAXPROCS)
//	-max-body N      request body cap in bytes (default 8 MiB)
//	-drain D         graceful shutdown grace period (default 30s)
//	-disk-cache DIR  persistent compile-result store layered under the
//	                 in-memory cache; survives restarts (empty disables)
//	-disk-cache-bytes N  on-disk store cap, mtime-LRU swept
//	                 (default 1 GiB; 0 = unlimited)
//
// Endpoints (see docs/API.md): POST /v1/compile, POST /v1/compile/module,
// POST /v1/compile/batch, GET /healthz, GET /statz, GET /debug/vars (expvar).
//
// On SIGINT/SIGTERM the daemon stops accepting connections, flips /healthz
// to 503, drains in-flight requests for up to -drain, then exits 0.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"prescount/internal/server"
)

func main() {
	addr := flag.String("addr", ":8135", "listen address")
	inflight := flag.Int("inflight", 0, "max concurrent compiles (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "max queued requests (0 = 4*inflight)")
	deadline := flag.Duration("deadline", 10*time.Second, "default per-request deadline")
	maxDeadline := flag.Duration("max-deadline", 60*time.Second, "cap on client-requested deadlines")
	cacheBytes := flag.Int64("cache-bytes", 256<<20, "compile cache byte cap, LRU-evicted (0 = unlimited)")
	workers := flag.Int("workers", 0, "module compile fan-out per request (0 = GOMAXPROCS)")
	maxBody := flag.Int64("max-body", 8<<20, "request body cap in bytes")
	drain := flag.Duration("drain", 30*time.Second, "graceful shutdown grace period")
	diskCache := flag.String("disk-cache", "", "directory for the persistent compile-result store (empty disables)")
	diskCacheBytes := flag.Int64("disk-cache-bytes", 1<<30, "on-disk store byte cap, mtime-LRU swept (0 = unlimited)")
	flag.Parse()

	srv, err := server.New(server.Config{
		MaxInFlight:    *inflight,
		MaxQueue:       *queue,
		MaxBody:        *maxBody,
		DefaultTimeout: *deadline,
		MaxTimeout:     *maxDeadline,
		CacheMaxBytes:  *cacheBytes,
		Workers:        *workers,
		DiskCacheDir:   *diskCache,
		DiskCacheBytes: *diskCacheBytes,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "prescountd:", err)
		os.Exit(1)
	}
	srv.PublishExpvar("prescountd")

	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	mux.Handle("/debug/vars", expvar.Handler())
	httpSrv := server.NewHTTPServer(*addr, mux)

	// SIGINT/SIGTERM → stop accepting, flip healthz, drain in-flight.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		cfg := srv.Config()
		fmt.Fprintf(os.Stderr, "prescountd: listening on %s (inflight=%d queue=%d deadline=%s cache-bytes=%d)\n",
			*addr, cfg.MaxInFlight, cfg.MaxQueue, cfg.DefaultTimeout, *cacheBytes)
		errCh <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		// Listen failed before any signal.
		fmt.Fprintln(os.Stderr, "prescountd:", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	srv.SetDraining(true)
	fmt.Fprintln(os.Stderr, "prescountd: draining")
	shCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "prescountd: shutdown:", err)
		os.Exit(1)
	}
	// Flush the write-behind queue so the next start of this node serves
	// this run's results as disk hits.
	srv.Close()
	st := srv.Statz()
	fmt.Fprintf(os.Stderr, "prescountd: drained clean (%d requests, %d ok, cache full=%.3f prefix=%.3f)\n",
		st.Requests.Total, st.Requests.OK, st.Cache.FullHitRate, st.Cache.PrefixHitRate)
}
