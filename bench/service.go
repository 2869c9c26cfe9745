package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"securearchive/internal/api"
	"securearchive/internal/api/client"
	"securearchive/internal/cluster"
	"securearchive/internal/core"
	"securearchive/internal/obs"
	"securearchive/internal/obs/trace"
	"securearchive/internal/store"
	"securearchive/internal/store/diskstore"
)

// The pinned configuration of the service under test. Everything not
// named here is the library's default: the integrity chain is
// tstamp.RefCommitment over group.Default() (the 2048-bit production
// group), chunk size, prefetch window and retry policy are NewVault's.
const (
	rsTotal, rsData = 14, 10   // RS 10+4, one shard per node
	nodeCount       = rsTotal  // 14 nodes
	cacheBytes      = 4 << 20  // read cache: 4 MiB against a 32 MiB preload
	fsyncPolicy     = "commit" // disk backend: data synced before each commit record
	clients         = 2        // closed loop, one keep-alive connection each (nproc = 2)
	tenantPrefix    = api.DefaultTenant + "/"
)

// service is the archive service running in this process: a vault over a
// cluster, served by api.Server on a loopback listener, plus the client
// that drives it.
type service struct {
	dir     string // store directory; "" for the mem backend
	cluster *cluster.Cluster
	vault   *core.Vault
	client  *client.Client

	// handled, in a traced service, receives one value each time a
	// handler returns; see httpTarget.
	handled chan struct{}

	httpSrv     *http.Server
	transport   *http.Transport
	served      chan error
	stopped     bool
	storeClosed bool
}

// startService opens the store in dir and starts the service. With a
// recorder, the encoding and the store are wrapped in the timing
// decorators. extra is for tests only (they swap in the small group).
func startService(w *workload, dir string, rec *recorder, extra ...core.VaultOption) (*service, error) {
	cfg := store.Config{Backend: w.backend, Fsync: fsyncPolicy}
	if w.backend == store.BackendDisk {
		cfg.Dir = dir
	}
	bk, err := cluster.OpenStore(cfg, nodeCount)
	if err != nil {
		return nil, err
	}
	var enc core.Encoding = core.Erasure{N: rsTotal, K: rsData}
	if rec != nil {
		bk = newTimedStore(bk, rec)
		enc = timedEncoding{inner: enc, rec: rec}
	}
	// One private registry and one tracer that is never enabled: the
	// program's own telemetry stays as cheap as a default server's, and
	// nothing leaks between runs through obs.Default().
	reg := obs.NewRegistry()
	tracer := trace.New(reg)
	c := cluster.NewWithStore(bk, nil)
	c.UseRegistry(reg)
	opts := append([]core.VaultOption{
		core.WithReadCache(cacheBytes), core.WithRegistry(reg), core.WithTracer(tracer),
	}, extra...)
	v, err := core.NewVault(c, enc, opts...)
	if err != nil {
		c.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		c.Close()
		return nil, err
	}
	s := &service{cluster: c, vault: v, dir: cfg.Dir, served: make(chan error, 1)}
	handler := api.NewServer(v, api.Config{Registry: reg, Tracer: tracer}).Handler()
	if rec != nil {
		// A GET's last body byte reaches the client before the handler
		// has verified the object's integrity chain, so the client call
		// returns while the request is still costing the server time.
		// The traced run has to see the whole request: it waits for this
		// signal after every call.
		s.handled = make(chan struct{}, 1)
		inner := handler
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			inner.ServeHTTP(w, r)
			s.handled <- struct{}{}
		})
	}
	s.httpSrv = &http.Server{Handler: handler}
	go func() { s.served <- s.httpSrv.Serve(ln) }()
	s.transport = &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients}
	s.client = client.New("http://" + ln.Addr().String())
	s.client.HTTPClient = &http.Client{Transport: s.transport}
	s.client.Tracer = tracer
	s.client.Retry429 = 0 // no rate limit is configured; a 429 would be a failure
	return s, nil
}

// stop shuts the listener and the client's connections down and waits
// for the serving goroutine. The store stays open.
func (s *service) stop() {
	if s.stopped {
		return
	}
	s.stopped = true
	s.transport.CloseIdleConnections()
	s.httpSrv.Close()
	<-s.served
}

// close stops the service, closes the store and removes its directory.
func (s *service) close() error {
	s.stop()
	var err error
	if !s.storeClosed {
		s.storeClosed = true
		err = s.cluster.Close()
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
	return err
}

// preload archives objects p/0 … p/<n-1> straight through the vault,
// under the ids an HTTP PUT from the default tenant would have given
// them. It uses PutReader, the call the PUT handler makes, so preloaded
// objects have the layout the service itself writes.
func (s *service) preload(w *workload, seed int64, n int) error {
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			buf := make([]byte, w.objSize)
			for k := c; k < n; k += clients {
				id := preloadID(k)
				fillPayload(buf, seed, id)
				if _, err := s.vault.PutReader(context.Background(), tenantPrefix+id, bytes.NewReader(buf)); err != nil {
					errs[c] = fmt.Errorf("preload %s: %w", id, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// reopenAudit closes the store, opens its directory again and checks
// that recovery found a clean archive: no orphaned stages, no invalid
// references, nothing left staged, and exactly the bytes that were
// stored before the close. It returns the recovery report and how long
// the reopen took, for the traced run's store.reopen_* metrics.
func (s *service) reopenAudit() (rep diskstore.RecoveryReport, reopen time.Duration, err error) {
	s.stop()
	if n := s.cluster.StagedCount(); n != 0 {
		return rep, 0, fmt.Errorf("%d shards left staged before close", n)
	}
	stored := s.cluster.StoredBytes()
	s.storeClosed = true
	if err := s.cluster.Close(); err != nil {
		return rep, 0, fmt.Errorf("close store: %w", err)
	}
	start := time.Now()
	ds, err := diskstore.Open(s.dir, nodeCount, diskstore.WithFsync(fsyncPolicy))
	reopen = time.Since(start)
	if err != nil {
		return rep, 0, fmt.Errorf("reopen store: %w", err)
	}
	defer ds.Close()
	rep = ds.Recovery()
	c := cluster.NewWithStore(ds, nil)
	switch {
	case rep.OrphanedStages != 0 || rep.InvalidRefs != 0:
		return rep, 0, fmt.Errorf("recovery after a clean close: %+v", rep)
	case c.StagedCount() != 0:
		return rep, 0, fmt.Errorf("%d shards staged after reopen", c.StagedCount())
	case c.StoredBytes() != stored:
		return rep, 0, fmt.Errorf("stored bytes %d after reopen, %d before close", c.StoredBytes(), stored)
	}
	return rep, reopen, nil
}
