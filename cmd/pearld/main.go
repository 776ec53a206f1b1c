// Command pearld is the PEARL simulation-as-a-service daemon: a JSON
// HTTP API over a bounded job queue, a worker pool of concurrent
// simulations, a content-addressed result cache and a live metrics
// endpoint. See the README's "pearld" section for the API walkthrough.
//
// Usage:
//
//	pearld                         # listen on :8080 with GOMAXPROCS workers
//	pearld -addr :9000 -workers 8 -queue 256 -cache 4096 -timeout 2m
//	pearld -cache-dir /var/cache/pearld            # results survive restarts
//	pearld -cache-dir d -warm-cache results/       # preload from artifacts
//	pearld -model-dir models/                      # host trained ML models
//	pearld -tenants tenants.json                   # token auth + fair-share scheduling
//	pearld -stream-ring 1024 -max-streams 4        # tune the live /events SSE feeds
//
// SIGINT/SIGTERM starts a graceful drain: intake stops (503), queued
// jobs are cancelled, in-flight simulations finish (bounded by
// -drain-grace), then the process exits; a second SIGINT/SIGTERM
// cancels the in-flight simulations at once. SIGHUP reloads the -tenants
// file in place without dropping queued or running jobs.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/server"
)

func main() {
	cfg, code := parseFlags(os.Args[1:], os.Stderr)
	if cfg == nil {
		os.Exit(code)
	}
	if cfg.pprofAddr != "" {
		go servePprof(cfg.pprofAddr)
	}
	if err := run(cfg.addr, cfg.opts, cfg.warmCache, cfg.drainGrace); err != nil {
		fmt.Fprintln(os.Stderr, "pearld:", err)
		os.Exit(1)
	}
}

// flags is what pearld's command line decides.
type flags struct {
	addr, pprofAddr string
	opts            server.Options
	warmCache       string
	drainGrace      time.Duration
}

// parseFlags parses args, writing usage and errors to stderr. A nil
// result means the process should exit with the returned code: 0 after
// -h, 2 on a bad flag.
func parseFlags(args []string, stderr io.Writer) (*flags, int) {
	fs := flag.NewFlagSet("pearld", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", ":8080", "listen address")
		workers     = fs.Int("workers", 0, "simulation worker pool size (0 = GOMAXPROCS)")
		queue       = fs.Int("queue", 64, "bounded job-queue depth")
		cacheCap    = fs.Int("cache", 1024, "result-cache capacity (entries, LRU)")
		cacheDir    = fs.String("cache-dir", "", "directory for the disk-persistent result cache (empty = memory only)")
		cacheDirMax = fs.Int64("cache-dir-max", 0, "disk cache size cap in bytes (0 = 256 MiB default)")
		warmCache   = fs.String("warm-cache", "", "JSON artifact file or directory to preload the cache from")
		modelDir    = fs.String("model-dir", "", "directory of trained model artifacts to host (rw500.json serves ref \"rw500\"); uploads via POST /v1/models persist here")
		tenants     = fs.String("tenants", "", "JSON tenant config file (tokens, weights, quotas); empty = open access as a single anonymous tenant. SIGHUP or POST /v1/admin/tenants/reload re-reads it")
		streamRing  = fs.Int("stream-ring", 0, "per-feed event ring capacity for /events streams; overflow drops oldest (0 = 512 default)")
		streamHB    = fs.Duration("stream-heartbeat", 0, "idle heartbeat interval on /events streams (0 = 15s default)")
		maxStreams  = fs.Int("max-streams", 0, "default per-tenant concurrent /events stream cap; per-tenant max_streams overrides (0 = 16 default)")

		timeout    = fs.Duration("timeout", 5*time.Minute, "default per-job wall-clock timeout")
		drainGrace = fs.Duration("drain-grace", 2*time.Minute, "how long shutdown waits for in-flight jobs")
		pprofAddr  = fs.String("pprof-addr", "", "listen address for net/http/pprof (empty = disabled); kept off the API listener so profiling is never exposed with it")
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return nil, 0
	} else if err != nil {
		return nil, 2
	}
	return &flags{
		addr:      *addr,
		pprofAddr: *pprofAddr,
		opts: server.Options{
			Workers:             *workers,
			QueueDepth:          *queue,
			CacheCapacity:       *cacheCap,
			CacheDir:            *cacheDir,
			CacheDirMaxBytes:    *cacheDirMax,
			ModelDir:            *modelDir,
			DefaultTimeout:      *timeout,
			TenantsFile:         *tenants,
			StreamRingCapacity:  *streamRing,
			StreamHeartbeat:     *streamHB,
			MaxStreamsPerTenant: *maxStreams,
		},
		warmCache:  *warmCache,
		drainGrace: *drainGrace,
	}, 0
}

// servePprof exposes the standard pprof handlers on their own listener,
// on an explicit mux rather than http.DefaultServeMux so nothing else
// registered there leaks out with them.
func servePprof(addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	log.Printf("pearld: pprof listening on %s", addr)
	if err := srv.ListenAndServe(); err != nil {
		log.Printf("pearld: pprof listener: %v", err)
	}
}

func run(addr string, opts server.Options, warmCache string, drainGrace time.Duration) error {
	daemon, err := server.New(opts)
	if err != nil {
		return err
	}
	if warmCache != "" {
		stats, err := daemon.WarmCache(warmCache)
		if err != nil {
			return err
		}
		log.Printf("pearld: warmed cache from %s (%s)", warmCache, stats)
	}
	httpServer := &http.Server{
		Addr:              addr,
		Handler:           daemon,
		ReadHeaderTimeout: 10 * time.Second,
	}

	errCh := make(chan error, 1)
	go func() {
		log.Printf("pearld listening on %s", addr)
		errCh <- httpServer.ListenAndServe()
	}()

	// SIGHUP hot-reloads the tenant config without touching queued or
	// running jobs; a broken file logs and keeps the previous tenants.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if names, err := daemon.ReloadTenants(); err != nil {
				log.Printf("pearld: tenant reload failed, keeping previous config: %v", err)
			} else {
				log.Printf("pearld: tenant config reloaded (%d tenants: %s)",
					len(names), strings.Join(names, ", "))
			}
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	select {
	case err := <-errCh:
		return err
	case s := <-sig:
		log.Printf("pearld: %v received, draining (grace %v)", s, drainGrace)
	}

	ctx, cancel := context.WithTimeout(context.Background(), drainGrace)
	defer cancel()
	// A second signal ends the grace period: Shutdown cancels the
	// in-flight jobs at once and returns when the workers have exited.
	go func() {
		select {
		case s := <-sig:
			log.Printf("pearld: second %v received, cancelling in-flight jobs", s)
			cancel()
		case <-ctx.Done():
		}
	}()
	drainErr := daemon.Shutdown(ctx)
	if drainErr != nil {
		log.Printf("pearld: drain incomplete, in-flight jobs force-cancelled: %v", drainErr)
	} else {
		log.Printf("pearld: drained cleanly")
	}
	if err := httpServer.Shutdown(ctx); err != nil && ctx.Err() == nil {
		return err
	}
	return nil
}
