package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"securearchive/internal/api"
	"securearchive/internal/cluster"
	"securearchive/internal/core"
	"securearchive/internal/obs"
	"securearchive/internal/obs/trace"
)

// shutdownGrace bounds how long a graceful shutdown waits for in-flight
// requests before the listener is torn down hard.
const shutdownGrace = 10 * time.Second

// cmdServe runs the archive service: the full /v1 object API (streaming
// put/get, delete, scrub, renew — see internal/api) plus its operations
// plane (/metrics, /snapshot, /traces, /slo, /healthz, /debug/pprof) on
// one listener, over an in-memory vault. Optionally it seeds objects,
// installs a fault plan, and keeps issuing background reads so the
// monitoring endpoints show a live system.
//
// The server is hardened for exposure beyond localhost: header-read and
// idle timeouts (a slowloris peer cannot pin a connection open for
// free), per-tenant rate limits and quotas, and graceful shutdown — on
// SIGINT/SIGTERM (or -duration) it stops accepting, lets in-flight
// requests finish within shutdownGrace, and only then exits. Request
// contexts are cancelled by client disconnects and by shutdown, which
// aborts staged writes and in-flight retry backoffs instead of leaking
// them.
func cmdServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:0", "listen address (port 0 picks a free port)")
	encName := fs.String("encoding", "erasure", "encoding scheme")
	n := fs.Int("n", 8, "total shards / nodes")
	t := fs.Int("t", 4, "threshold (privacy or decode, per encoding)")
	k := fs.Int("k", 3, "pack factor (packed encoding only)")
	objects := fs.Int("objects", 16, "objects seeded into the vault (0 = start empty)")
	size := fs.Int("size", 64<<10, "bytes per seeded object")
	seed := fs.Int64("seed", 1, "payload and fault seed")
	offline := fs.Int("offline", 0, "nodes taken offline after seeding")
	transient := fs.Float64("transient", 0, "per-op transient fault probability")
	corrupt := fs.Float64("corrupt", 0, "per-read bit-rot probability")
	interval := fs.Duration("interval", 250*time.Millisecond, "delay between background reads (0 = no background load)")
	journal := fs.String("journal", "", "append completed traces to this JSONL file")
	maxDegraded := fs.Float64("max-degraded-rate", api.DefaultMaxDegradedRate, "healthz: max degraded/failed read fraction")
	maxBacklog := fs.Int("max-scrub-backlog", api.DefaultMaxScrubBacklog, "healthz: max dirty objects awaiting scrub")
	duration := fs.Duration("duration", 0, "exit after this long (0 = serve until killed)")
	rate := fs.Float64("rate", 0, "per-tenant request rate limit in ops/sec (0 = unlimited)")
	burst := fs.Float64("burst", 0, "rate limiter burst (default: max(1, rate))")
	quotaBytes := fs.Int64("quota-bytes", 0, "per-tenant byte quota (0 = unlimited)")
	quotaObjects := fs.Int64("quota-objects", 0, "per-tenant object quota (0 = unlimited)")
	cacheBytes := fs.Int64("cache-bytes", 0, "decoded-object read cache budget in bytes (0 = cache off)")
	cacheShare := fs.Float64("cache-share", core.DefaultCacheTenantShare, "max fraction of the read cache one tenant may occupy")
	fs.Parse(args)

	enc, err := buildEncoding(*encName, *n, *t, *k)
	if err != nil {
		fatal(err)
	}
	c := cluster.New(*n, nil)
	tr := trace.Default()
	tr.SetEnabled(true)
	var jf *os.File
	var jl *trace.JSONL
	if *journal != "" {
		jf, err = os.OpenFile(*journal, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal(err)
		}
		jl = trace.NewJSONL(jf)
		tr.AddExporter(jl)
	}
	// No WithGroup: the service runs the integrity chain on NewVault's
	// default, group.Default() (2048-bit p, 256-bit q).
	var vopts []core.VaultOption
	if *cacheBytes > 0 {
		vopts = append(vopts, core.WithReadCache(*cacheBytes), core.WithCacheTenantShare(*cacheShare))
	}
	v, err := core.NewVault(c, enc, vopts...)
	if err != nil {
		fatal(err)
	}
	rng := rand.New(rand.NewSource(*seed))
	payload := make([]byte, *size)
	for i := 0; i < *objects; i++ {
		rng.Read(payload)
		if err := v.Put(context.Background(), fmt.Sprintf("seed/obj-%04d", i), payload); err != nil {
			fatal(fmt.Errorf("seed obj-%04d: %w", i, err))
		}
	}
	for i := 0; i < *offline; i++ {
		c.SetOnline(i, false)
	}
	if *transient > 0 || *corrupt > 0 {
		c.SetFaultPlan(&cluster.FaultPlan{Seed: *seed, Default: cluster.NodeFaults{
			TransientProb: *transient,
			CorruptProb:   *corrupt,
		}})
	}

	// The server, the vault and the cluster share obs.Default() and the
	// default tracer. /healthz judges the degraded-read rate over a
	// sliding window (also sampled on the ticker below), so health
	// recovers once an incident slides out of view.
	svc := api.NewServer(v, api.Config{
		DefaultQuota: api.Quota{MaxBytes: *quotaBytes, MaxObjects: *quotaObjects},
		Rate:         api.RateConfig{OpsPerSec: *rate, Burst: *burst},
		Health:       api.Thresholds{MaxScrubBacklog: *maxBacklog, MaxDegradedRate: *maxDegraded},
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("archivectl: serving on http://%s\n", ln.Addr())
	fmt.Printf("archivectl: object API: PUT/GET/DELETE /v1/objects/{id}, POST /v1/scrub/{id}, POST /v1/renew/{id}\n")
	fmt.Printf("archivectl: monitoring: /metrics /snapshot /traces /traces?format=text /slo /healthz /debug/pprof/\n")

	// Background load: round-robin reads over the seeded objects keep
	// the metrics and traces moving so the endpoints show a live system,
	// not a frozen seed.
	stop := make(chan struct{})
	go func() {
		t := time.NewTicker(obs.DefaultSLOInterval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case now := <-t.C:
				svc.SampleHealth(now)
			}
		}
	}()
	if *interval > 0 && *objects > 0 {
		go func() {
			i := 0
			for {
				select {
				case <-stop:
					return
				case <-time.After(*interval):
				}
				id := fmt.Sprintf("seed/obj-%04d", i%*objects)
				i++
				if _, err := v.Get(context.Background(), id); err != nil && !errors.Is(err, core.ErrDegraded) {
					fmt.Fprintf(os.Stderr, "archivectl: read %s: %v\n", id, err)
				}
			}
		}()
	}

	srv := &http.Server{
		Handler: svc.Handler(),
		// Slowloris guard: a peer gets 5s to finish its request headers.
		// No overall read/write deadline — streaming transfers of large
		// objects are legitimate long requests — but idle keep-alive
		// connections are reaped.
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       60 * time.Second,
	}

	// Graceful shutdown on SIGINT/SIGTERM or -duration: stop accepting,
	// drain in-flight requests up to shutdownGrace, then hard-close.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		defer close(done)
		var why string
		if *duration > 0 {
			select {
			case <-time.After(*duration):
				why = "duration elapsed"
			case s := <-sigCh:
				why = s.String()
			}
		} else {
			s := <-sigCh
			why = s.String()
		}
		close(stop)
		fmt.Fprintf(os.Stderr, "archivectl: %s, draining (up to %v)\n", why, shutdownGrace)
		ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			// Drain deadline blown: cut the stragglers loose.
			fmt.Fprintf(os.Stderr, "archivectl: shutdown: %v\n", err)
			srv.Close()
		}
	}()
	if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	<-done
	// The journal drops every trace after its first failed write rather
	// than stall the data path; a run whose journal lost traces fails.
	if jl != nil {
		err := jl.Err()
		if cerr := jf.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal(fmt.Errorf("journal %s: %w", *journal, err))
		}
	}
}
