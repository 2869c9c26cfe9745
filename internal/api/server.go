package api

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"securearchive/internal/cluster"
	"securearchive/internal/core"
	"securearchive/internal/obs"
	"securearchive/internal/obs/trace"
	"securearchive/internal/sig"
	"securearchive/internal/store"
)

// Config shapes a Server.
type Config struct {
	// DefaultQuota applies to tenants without an entry in Quotas.
	// The zero Quota is unlimited.
	DefaultQuota Quota
	// Quotas overrides budgets per tenant name.
	Quotas map[string]Quota
	// Rate is the per-tenant token bucket; zero disables limiting.
	Rate RateConfig
	// Registry receives the api.* series and is the registry /metrics,
	// /snapshot and /healthz read (obs.Default() when nil). Point the
	// vault and cluster at the same one.
	Registry *obs.Registry
	// Tracer roots a span per request — joining the caller's trace when
	// the request carries a W3C traceparent header — and stamps the
	// trace ID onto every response. The span is the request's one
	// record, api.<op>.{ok,err}, so when nil it is trace.Default() over
	// the default registry and a private tracer over any other.
	Tracer *trace.Tracer
	// Health bounds what /healthz tolerates; zero fields take the
	// defaults.
	Health Thresholds
}

// Server serves a Vault over HTTP. Routes:
//
//	PUT    /v1/objects/{id...}         streaming upload
//	GET    /v1/objects/{id...}         streaming download
//	HEAD   /v1/objects/{id...}         metadata only
//	DELETE /v1/objects/{id...}
//	POST   /v1/scrub/{id...}           audit + repair one object
//	POST   /v1/renew/{id...}?mode=shares|integrity[&scheme=...]
//	GET    /v1/objects                 list tenant's objects
//	GET    /v1/usage                   tenant quota consumption
//
// and, on the same listener, the operations plane (plane.go): /metrics,
// /snapshot, /traces, /slo, /healthz and /debug/pprof/.
//
// Every request is namespaced by the X-Archive-Tenant header (default
// "default"): object ids are stored as "<tenant>/<id>", so tenants
// cannot see or collide with each other's objects. Handlers run on the
// request context — a client that disconnects mid-transfer cancels the
// vault operation, which aborts staged writes and in-flight retry
// backoffs (see internal/cluster's retryTransient).
type Server struct {
	vault   *core.Vault
	quotas  *quotaTable
	limiter *limiterTable
	reg     *obs.Registry
	tracer  *trace.Tracer
	slos    *obs.SLOTable
	health  *health

	// rateLimited counts 429s. tenantOK/tenantErr are each admitted
	// request's latency under its tenant: the api.{ok,err}{tenant} pair.
	rateLimited         *obs.Counter
	tenantOK, tenantErr *obs.Family[*obs.Histogram]
}

// NewServer builds a Server over v.
func NewServer(v *core.Vault, cfg Config) *Server {
	reg := cfg.Registry
	if reg == nil {
		reg = obs.Default()
	}
	tr := cfg.Tracer
	switch {
	case tr != nil:
	case reg == obs.Default():
		tr = trace.Default()
	default:
		tr = trace.New(reg)
	}
	return &Server{
		vault:       v,
		quotas:      newQuotaTable(cfg.DefaultQuota, cfg.Quotas),
		limiter:     newLimiterTable(cfg.Rate),
		reg:         reg,
		tracer:      tr,
		slos:        obs.NewSLOTable(obs.DefaultSLOSpecs()...),
		health:      newHealth(reg, cfg.Health),
		rateLimited: reg.Counter("api.rate_limited"),
		tenantOK:    reg.LabeledHistogram("api.ok", obs.LatencyBuckets(), "tenant"),
		tenantErr:   reg.LabeledHistogram("api.err", obs.LatencyBuckets(), "tenant"),
	}
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("PUT /v1/objects/{id...}", s.route("put", s.handlePut))
	mux.HandleFunc("GET /v1/objects/{id...}", s.route("get", s.handleGet))
	mux.HandleFunc("HEAD /v1/objects/{id...}", s.route("stat", s.handleStat))
	mux.HandleFunc("DELETE /v1/objects/{id...}", s.route("delete", s.handleDelete))
	mux.HandleFunc("POST /v1/scrub/{id...}", s.route("scrub", s.handleScrub))
	mux.HandleFunc("POST /v1/renew/{id...}", s.route("renew", s.handleRenew))
	mux.HandleFunc("GET /v1/objects", s.route("list", s.handleList))
	mux.HandleFunc("GET /v1/usage", s.route("usage", s.handleUsage))
	s.mountPlane(mux)
	return mux
}

// statusWriter tracks whether the handler already committed a status
// (or streamed body bytes), after which the error path can only drop
// the connection — it must not write a second status line.
type statusWriter struct {
	http.ResponseWriter
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(p)
}

// route wraps a handler with the service plumbing: the request span
// (joining the caller's trace when the request carries a traceparent
// header, and stamping the trace ID onto the response), tenant
// resolution, token-bucket admission (429 + Retry-After on refusal),
// per-tenant instrumentation, SLO accounting, and error-to-status
// mapping. The span starts first, so every request — a refused tenant
// too — lands in api.<op>.{ok,err}.
func (s *Server) route(op string, h func(w *statusWriter, r *http.Request, tenant string) error) http.HandlerFunc {
	spanName := "api." + op
	return func(w http.ResponseWriter, r *http.Request) {
		tenant := r.Header.Get(TenantHeader)
		if tenant == "" {
			tenant = DefaultTenant
		}
		// Root the request span — joined to the caller's trace when a
		// well-formed traceparent arrived — and announce the trace ID on
		// the response before any body bytes commit the headers.
		ctx := r.Context()
		var sp trace.Span
		if id, pspan, ok := trace.ParseTraceparent(r.Header.Get(trace.TraceparentHeader)); ok {
			ctx, sp = s.tracer.StartRemote(ctx, spanName, id, pspan,
				trace.Str("tenant", tenant), trace.Str("method", r.Method))
		} else {
			ctx, sp = s.tracer.Start(ctx, spanName,
				trace.Str("tenant", tenant), trace.Str("method", r.Method))
		}
		if tid := sp.TraceID(); tid != 0 {
			w.Header().Set(TraceHeader, tid.String())
			w.Header().Set(trace.TraceparentHeader, trace.FormatTraceparent(tid, sp.SpanID()))
		}
		r = r.WithContext(ctx)
		if !validTenant(tenant) {
			err := badRequestf("invalid tenant %q", tenant)
			sp.End(err)
			writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
			return
		}

		start := time.Now()
		var err error
		if ok, wait := s.limiter.allow(tenant, start); !ok {
			s.rateLimited.Inc()
			secs := int(wait/time.Second) + 1
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			err = fmt.Errorf("api: tenant %q rate limited, retry in %v", tenant, wait.Round(time.Millisecond))
			sp.Event("ratelimit.rejected", trace.Int64("retry_after_s", int64(secs)))
			s.finish(sp, tenant, op, start, http.StatusTooManyRequests, err)
			writeError(w, http.StatusTooManyRequests, CodeRateLimited,
				fmt.Sprintf("tenant %q rate limited, retry in %v", tenant, wait.Round(time.Millisecond)))
			return
		}
		sw := &statusWriter{ResponseWriter: w}
		err = h(sw, r, tenant)
		status, machine := http.StatusOK, ""
		if err != nil {
			status, machine = errorStatus(err)
		}
		s.finish(sp, tenant, op, start, status, err)
		if err != nil && !sw.wrote {
			writeError(w, status, machine, err.Error())
		}
		// Headers already sent (streaming GET failed mid-body): the short
		// body against the announced Content-Length is the client's
		// corruption signal; nothing more we can say here.
	}
}

// finish records one admitted request: its tenant's latency pair, its
// SLOs, and the end of its span.
func (s *Server) finish(sp trace.Span, tenant, op string, start time.Time, status int, err error) {
	lat := time.Since(start)
	fam := s.tenantOK
	if err != nil {
		fam = s.tenantErr
	}
	fam.With(tenant).Observe(float64(lat.Nanoseconds()))
	s.feedSLO(tenant, op, status, lat, err)
	sp.End(err)
}

// feedSLO records one finished request into the tenant's sliding-window
// SLOs: availability counts any server-fault (5xx) as bad, the get
// latency SLO observes successful read latency against its target, and
// degraded.reads counts a read the cluster could not satisfy
// (core.ErrDegraded) as bad.
func (s *Server) feedSLO(tenant, op string, status int, lat time.Duration, err error) {
	row := s.slos.Row(tenant)
	if slo := row["availability"]; slo != nil {
		slo.Record(status < 500)
	}
	if op != "get" {
		return
	}
	if slo := row["get.latency"]; slo != nil && err == nil {
		slo.Observe(float64(lat.Nanoseconds()))
	}
	if slo := row["degraded.reads"]; slo != nil {
		slo.Record(!errors.Is(err, core.ErrDegraded))
	}
}

// errorStatus maps service/vault errors onto HTTP statuses and stable
// machine codes.
func errorStatus(err error) (int, string) {
	switch {
	case errors.Is(err, core.ErrNotFound):
		return http.StatusNotFound, CodeNotFound
	case errors.Is(err, core.ErrExists):
		return http.StatusConflict, CodeExists
	case errors.Is(err, ErrQuotaBytes):
		return http.StatusRequestEntityTooLarge, CodeQuotaBytes
	case errors.Is(err, ErrQuotaObjects):
		return http.StatusInsufficientStorage, CodeQuotaObjects
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, cluster.ErrRetryAborted):
		// The client went away; 499-style. The status rarely reaches
		// anyone, but the access log distinction matters.
		return http.StatusRequestTimeout, CodeCanceled
	case errors.Is(err, core.ErrDegraded):
		return http.StatusServiceUnavailable, CodeDegraded
	case errors.Is(err, errBadRequest), errors.Is(err, store.ErrKeyTooLong):
		return http.StatusBadRequest, CodeBadRequest
	default:
		return http.StatusInternalServerError, CodeInternal
	}
}

// errBadRequest marks caller mistakes (bad id, unknown mode/scheme).
var errBadRequest = errors.New("api: bad request")

func badRequestf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errBadRequest, fmt.Sprintf(format, args...))
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorBody{Code: code, Message: msg})
}

func writeJSON(w http.ResponseWriter, status int, v any) error {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	return json.NewEncoder(w).Encode(v)
}

// maxObjectIDLen caps a client's object id far below what any backend
// can record (store.ErrKeyTooLong), so the limit a client meets does not
// depend on the backend or on the tenant prefix.
const maxObjectIDLen = 1024

// objectID validates the path id and returns the tenant-namespaced
// storage key.
func objectID(r *http.Request, tenant string) (string, error) {
	id := r.PathValue("id")
	if id == "" {
		return "", badRequestf("empty object id")
	}
	if len(id) > maxObjectIDLen {
		return "", badRequestf("object id of %d bytes exceeds %d", len(id), maxObjectIDLen)
	}
	if strings.Contains(id, "//") || strings.HasPrefix(id, "/") || strings.HasSuffix(id, "/") {
		return "", badRequestf("malformed object id %q", id)
	}
	for _, seg := range strings.Split(id, "/") {
		if seg == "." || seg == ".." {
			return "", badRequestf("malformed object id %q", id)
		}
	}
	return tenant + "/" + id, nil
}

func (s *Server) handlePut(w *statusWriter, r *http.Request, tenant string) error {
	key, err := objectID(r, tenant)
	if err != nil {
		return err
	}
	if err := s.quotas.admitObject(tenant); err != nil {
		return err
	}
	q := s.quotas.quota(tenant)
	u := s.quotas.usage(tenant)
	if q.MaxBytes > 0 && r.ContentLength > 0 &&
		u.bytes.Load()+u.inflight.Load()+r.ContentLength > q.MaxBytes {
		// Fail before ingesting anything when the announced length
		// already breaks the budget; chunked uploads are caught by the
		// streaming reader below instead.
		return fmt.Errorf("%w: tenant %q over %d bytes", ErrQuotaBytes, tenant, q.MaxBytes)
	}
	qr := &quotaReader{r: r.Body, u: u, max: q.MaxBytes, tenant: tenant}
	var body io.Reader = uploadBody{qr}
	if r.ContentLength >= 0 {
		body = &sizedBody{uploadBody{qr}, r.ContentLength}
	}
	n, err := s.vault.PutReader(r.Context(), key, body)
	qr.settle(err == nil)
	if err != nil {
		return err
	}
	return writeJSON(w, http.StatusCreated, PutResult{ID: strings.TrimPrefix(key, tenant+"/"), Bytes: n})
}

// errTruncatedBody is an upload whose body ended before the request
// did: the client's connection closed mid-body.
var errTruncatedBody = fmt.Errorf("%w: upload body ended early", errBadRequest)

// uploadBody is a PUT's body as the vault reads it. net/http reports a
// body cut short — by its Content-Length or its chunk framing — as
// io.ErrUnexpectedEOF, which fails the vault's put like any source
// error; uploadBody makes it errTruncatedBody, so the client is told it
// sent a bad request whether or not the closed connection has cancelled
// the request's context yet.
type uploadBody struct{ r io.Reader }

func (b uploadBody) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	if err == io.ErrUnexpectedEOF {
		err = errTruncatedBody
	}
	return n, err
}

// sizedBody is an upload that announced its Content-Length. Len reports
// the bytes still to come, so the vault reads a body shorter than a chunk
// straight into a buffer of its size instead of through its probe buffer.
type sizedBody struct {
	uploadBody
	left int64
}

// Len reports the bytes still to come.
func (b *sizedBody) Len() int { return int(b.left) }

func (b *sizedBody) Read(p []byte) (int, error) {
	n, err := b.uploadBody.Read(p)
	b.left -= int64(n)
	return n, err
}

func (s *Server) handleGet(w *statusWriter, r *http.Request, tenant string) error {
	key, err := objectID(r, tenant)
	if err != nil {
		return err
	}
	info, err := s.vault.Stat(key)
	if err != nil {
		return err
	}
	setStatHeaders(w, info)
	w.WriteHeader(http.StatusOK)
	if _, err := s.vault.ReadTo(r.Context(), key, w); err != nil {
		return fmt.Errorf("api: stream %s: %w", key, err)
	}
	return nil
}

func (s *Server) handleStat(w *statusWriter, r *http.Request, tenant string) error {
	key, err := objectID(r, tenant)
	if err != nil {
		return err
	}
	info, err := s.vault.Stat(key)
	if err != nil {
		return err
	}
	setStatHeaders(w, info)
	w.WriteHeader(http.StatusOK)
	return nil
}

// setStatHeaders carries object metadata on GET/HEAD responses; the
// client's Stat reads these without a body.
func setStatHeaders(w *statusWriter, info *core.ObjectInfo) {
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set("Content-Length", strconv.FormatInt(info.PlainLen, 10))
	h.Set("X-Archive-Scheme", info.Scheme)
	h.Set("X-Archive-Chunks", strconv.Itoa(info.Chunks))
	h.Set("X-Archive-Width", strconv.Itoa(info.Width))
	h.Set("X-Archive-Chain-Len", strconv.Itoa(info.ChainLen))
}

func (s *Server) handleDelete(w *statusWriter, r *http.Request, tenant string) error {
	key, err := objectID(r, tenant)
	if err != nil {
		return err
	}
	info, err := s.vault.Stat(key)
	if err != nil {
		return err
	}
	if err := s.vault.DeleteContext(r.Context(), key); err != nil {
		return err
	}
	s.quotas.usage(tenant).release(info.PlainLen)
	w.WriteHeader(http.StatusNoContent)
	return nil
}

func (s *Server) handleScrub(w *statusWriter, r *http.Request, tenant string) error {
	key, err := objectID(r, tenant)
	if err != nil {
		return err
	}
	rep, err := s.vault.Scrub(r.Context(), key)
	if err != nil {
		return err
	}
	return writeJSON(w, http.StatusOK, ScrubResult{
		Object:   strings.TrimPrefix(rep.Object, tenant+"/"),
		Healthy:  rep.Healthy,
		Missing:  rep.Missing,
		Corrupt:  rep.Corrupt,
		Repaired: rep.Repaired,
	})
}

func (s *Server) handleRenew(w *statusWriter, r *http.Request, tenant string) error {
	key, err := objectID(r, tenant)
	if err != nil {
		return err
	}
	mode := r.URL.Query().Get("mode")
	res := RenewResult{Object: strings.TrimPrefix(key, tenant+"/"), Mode: mode}
	switch mode {
	case "shares", "":
		res.Mode = "shares"
		if err := s.vault.RenewShares(r.Context(), key); err != nil {
			return err
		}
	case "integrity":
		scheme := sig.Scheme(r.URL.Query().Get("scheme"))
		if scheme == "" {
			scheme = sig.Ed25519
		}
		if _, err := sig.Get(scheme); err != nil {
			return badRequestf("unknown signature scheme %q", scheme)
		}
		if err := s.vault.RenewIntegrity(r.Context(), key, scheme); err != nil {
			return err
		}
		if info, err := s.vault.Stat(key); err == nil {
			res.ChainLen = info.ChainLen
		}
	default:
		return badRequestf("unknown renew mode %q (want shares or integrity)", mode)
	}
	return writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleList(w *statusWriter, r *http.Request, tenant string) error {
	prefix := tenant + "/"
	var ids []string
	for _, id := range s.vault.Objects() {
		if strings.HasPrefix(id, prefix) {
			ids = append(ids, strings.TrimPrefix(id, prefix))
		}
	}
	sort.Strings(ids)
	return writeJSON(w, http.StatusOK, ListResult{Objects: ids})
}

func (s *Server) handleUsage(w *statusWriter, r *http.Request, tenant string) error {
	q := s.quotas.quota(tenant)
	u := s.quotas.usage(tenant)
	res := UsageResult{
		Tenant:     tenant,
		Bytes:      u.bytes.Load() + u.inflight.Load(),
		Objects:    u.objects.Load(),
		MaxBytes:   q.MaxBytes,
		MaxObjects: q.MaxObjects,
	}
	// Read-cache residency: objects are keyed "<tenant>/<id>", which is
	// exactly the owner prefix the cache accounts by.
	if st := s.vault.CacheStats(); st != nil {
		res.CacheBytes = st.OwnerBytes[tenant]
	}
	return writeJSON(w, http.StatusOK, res)
}
