// Command msroute runs the stateless routing tier in front of N msserve
// shards: consistent-hash routing by workload fingerprint (lineage
// override for replanning chains) keeps repeated workloads on the shard
// whose memo, compiled-table and warm caches already hold them, and
// bounded work-stealing lets idle shards drain an overloaded peer's
// stealable backlog. The router speaks both the JSON and binary codecs
// transparently; /statsz reports steal and locality counters.
//
// Usage:
//
//	msroute -backends http://h1:8080,http://h2:8080 [-addr :8070]
//	        [-vnodes 160] [-queue 128] [-workers 4]
//	        [-drain-grace 30s] [-pprof] [-log-requests] [-slow 0]
//
// Observability: GET /metricsz serves Prometheus text metrics (request
// counters, queue/forward latency histograms, steal counters), and every
// request gets an X-Malsched-Request ID — minted here or taken from the
// client — that is forwarded to the serving shard and echoed on the
// response, so one grep joins the router's and the shard's logs. See
// docs/OBSERVABILITY.md.
//
// Backend ring positions are seeded by each backend's stable name —
// by default the URL itself, or NAME=URL entries to survive address
// changes. Renaming a backend remaps its whole key range; see
// docs/SERVICE.md for the resharding contract.
//
// On SIGTERM or SIGINT the router drains: /healthz flips to 503, new
// requests are refused with a typed "draining" error, and in-flight
// requests get up to -drain-grace to finish.
package main

import (
	"errors"
	"flag"
	"log"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"malsched/internal/obs"
	"malsched/internal/router"
)

// parseBackends turns "-backends a,b,c" into named Backend entries.
// Each entry is either a bare URL (name = URL) or NAME=URL.
func parseBackends(s string) ([]router.Backend, error) {
	var out []router.Backend
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, url := entry, entry
		if i := strings.Index(entry, "="); i >= 0 {
			name, url = entry[:i], entry[i+1:]
		}
		if name == "" || url == "" {
			return nil, errors.New("backend entries must be URL or NAME=URL")
		}
		out = append(out, router.Backend{Name: name, URL: strings.TrimRight(url, "/")})
	}
	if len(out) == 0 {
		return nil, errors.New("at least one backend is required (-backends)")
	}
	return out, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("msroute: ")
	addr := flag.String("addr", ":8070", "listen address")
	backends := flag.String("backends", "", "comma-separated msserve base URLs (or NAME=URL; the name seeds ring positions)")
	vnodes := flag.Int("vnodes", 0, "ring points per backend (0 = default)")
	queue := flag.Int("queue", router.DefaultQueueDepth, "pending requests per shard before shedding with 429")
	workers := flag.Int("workers", router.DefaultWorkers, "concurrent forwards per shard (forwarding slots)")
	drainGrace := flag.Duration("drain-grace", 30*time.Second, "how long in-flight requests get after SIGTERM")
	pprofOn := flag.Bool("pprof", false, "serve runtime profiles on /debug/pprof/ (off by default)")
	logRequests := flag.Bool("log-requests", false, "log every routed request (structured, stderr)")
	slow := flag.Duration("slow", 0, "log requests at or above this duration at Warn with queue/forward timings (0 = off)")
	flag.Parse()

	bk, err := parseBackends(*backends)
	if err != nil {
		log.Fatal(err)
	}
	cfg := router.Config{
		Backends:      bk,
		VNodes:        *vnodes,
		QueueDepth:    *queue,
		Workers:       *workers,
		LogRequests:   *logRequests,
		SlowThreshold: *slow,
	}
	if *logRequests || *slow > 0 {
		cfg.Logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	rt, err := router.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()

	handler := rt.Handler()
	if *pprofOn {
		handler = obs.WithPprof(handler)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	names := make([]string, len(bk))
	for i, b := range bk {
		names[i] = b.Name
	}
	log.Printf("routing on %s over %d shards [%s] (queue %d, workers %d)",
		ln.Addr(), len(bk), strings.Join(names, ", "), *queue, *workers)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	if err := obs.Serve(ln, handler, sig, rt.StartDrain, *drainGrace, log.Default()); err != nil {
		log.Fatal(err)
	}
}
