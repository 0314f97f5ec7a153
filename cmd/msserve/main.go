// Command msserve runs the malsched scheduling service: an HTTP/JSON API
// over one batch engine with fingerprint-keyed memoisation, a bounded
// admission queue and registry-validated per-request solver selection.
// Every response is re-checked with the canonical plan verifier before it
// leaves the process.
//
// Usage:
//
//	msserve [-addr :8080] [-workers 0] [-memo 0] [-queue 64]
//	        [-timeout 0] [-max-timeout 60s] [-drain-grace 30s] [-pprof]
//	        [-log-requests] [-slow 0]
//
// Observability: GET /metricsz serves Prometheus text metrics (request
// counters, per-stage latency histograms), -log-requests emits one
// structured log line per request with its X-Malsched-Request ID, and
// -slow flags requests over the threshold with their stage breakdown. See
// docs/OBSERVABILITY.md.
//
// On SIGTERM or SIGINT the server drains gracefully: /healthz flips to 503
// so load balancers stop routing, new scheduling requests are refused with
// a typed "draining" error, and in-flight requests get up to -drain-grace
// to finish before the listener closes.
//
// See docs/SERVICE.md for the API schema and cmd/msload for the
// differential load generator that replays workloads against a running
// msserve.
package main

import (
	"flag"
	"log"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"malsched"
	"malsched/internal/obs"
	"malsched/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("msserve: ")
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "concurrent solves per process (0 = GOMAXPROCS)")
	memo := flag.Int("memo", 0, "memo capacity per process (0 = default, negative disables)")
	queue := flag.Int("queue", server.DefaultQueueDepth, "admission queue depth (further requests get 429)")
	timeout := flag.Duration("timeout", 0, "default per-request solve timeout (0 = none)")
	maxTimeout := flag.Duration("max-timeout", server.DefaultMaxTimeout, "cap on per-request timeout_ms")
	drainGrace := flag.Duration("drain-grace", 30*time.Second, "how long in-flight requests get after SIGTERM")
	pprofOn := flag.Bool("pprof", false, "serve runtime profiles on /debug/pprof/ (off by default)")
	logRequests := flag.Bool("log-requests", false, "log every scheduling request (structured, stderr)")
	slow := flag.Duration("slow", 0, "log requests at or above this duration at Warn with stage timings (0 = off)")
	flag.Parse()

	cfg := server.Config{
		Workers:        *workers,
		MemoCapacity:   *memo,
		QueueDepth:     *queue,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		LogRequests:    *logRequests,
		SlowThreshold:  *slow,
	}
	if *logRequests || *slow > 0 {
		cfg.Logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	srv := server.New(cfg)
	handler := srv.Handler()
	if *pprofOn {
		handler = obs.WithPprof(handler)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("listening on %s (queue %d, solvers: %s)",
		ln.Addr(), *queue, strings.Join(malsched.Solvers(), ", "))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	if err := obs.Serve(ln, handler, sig, srv.StartDrain, *drainGrace, log.Default()); err != nil {
		log.Fatal(err)
	}
}
