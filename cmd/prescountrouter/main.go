// Command prescountrouter fronts a fleet of prescountd daemons with a
// consistent-hash router: each compile's content fingerprint picks its
// backend, so every resubmission of a kernel lands on the node whose
// memory and disk caches already hold its result.
//
// Usage:
//
//	prescountrouter -backends URL[,URL...] [flags]
//
//	-addr A          listen address (default :8134)
//	-backends LIST   comma-separated prescountd base URLs (required)
//	-vnodes N        virtual nodes per backend on the hash ring (default 128)
//	-health-every D  backend health-probe period (default 1s)
//	-retries N       max distinct backends tried per request (default 3)
//	-max-body N      request body cap in bytes (default 8 MiB)
//
// Endpoints mirror prescountd (docs/API.md): POST /v1/compile,
// POST /v1/compile/module, POST /v1/compile/batch — plus the router's own
// GET /healthz (200 while any backend is healthy) and GET /statz
// (per-backend health and traffic counters).
//
// Retry policy: connection failures and 429s hop to the ring successor
// with jittered backoff; compile errors and deadlines pass through
// untouched (they are the backend's authoritative answer). With every
// backend saturated the final 429 passes through; with none healthy the
// router answers 503 with Retry-After.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"prescount/internal/router"
	"prescount/internal/server"
)

func main() {
	addr := flag.String("addr", ":8134", "listen address")
	backends := flag.String("backends", "", "comma-separated prescountd base URLs (required)")
	vnodes := flag.Int("vnodes", 128, "virtual nodes per backend")
	healthEvery := flag.Duration("health-every", time.Second, "health-probe period")
	retries := flag.Int("retries", 3, "max distinct backends tried per request")
	maxBody := flag.Int64("max-body", 8<<20, "request body cap in bytes")
	flag.Parse()

	var urls []string
	for _, u := range strings.Split(*backends, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 {
		fmt.Fprintln(os.Stderr, "prescountrouter: -backends is required")
		os.Exit(2)
	}

	r, err := router.New(router.Config{
		Backends:    urls,
		VNodes:      *vnodes,
		HealthEvery: *healthEvery,
		Retries:     *retries,
		MaxBody:     *maxBody,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "prescountrouter:", err)
		os.Exit(1)
	}
	r.CheckNow()
	defer r.Stop()

	fmt.Fprintf(os.Stderr, "prescountrouter: listening on %s, %d backends, %d vnodes each\n",
		*addr, len(urls), *vnodes)
	if err := server.NewHTTPServer(*addr, r.Handler()).ListenAndServe(); err != nil {
		fmt.Fprintln(os.Stderr, "prescountrouter:", err)
		os.Exit(1)
	}
}
