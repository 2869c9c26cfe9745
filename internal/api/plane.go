package api

import (
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"

	"securearchive/internal/obs"
	"securearchive/internal/obs/trace"
)

// The operations plane: the server's own view of the archive, served
// beside the /v1 routes from the registry, tracer, SLO table and vault
// the server already holds. The paper's archival argument is operational
// as much as cryptographic: §3.2's bandwidth wall and the
// repair-scheduling literature (PASIS, POTSHARDS) both assume someone is
// WATCHING the archive — degraded-read rates, scrub backlogs, probe
// latencies.
//
//	/metrics       Prometheus text exposition of the registry
//	/snapshot      the registry snapshot as JSON
//	/traces        recent traces (?n=, &format=text for timelines,
//	               &which=tail for the retained interesting tail)
//	/slo           per-tenant sliding-window SLO compliance and burn
//	/healthz       thresholded health checks; 503 when any fail
//	/debug/pprof/  the standard runtime profiles

// Thresholds bound what /healthz tolerates before reporting unhealthy.
type Thresholds struct {
	// MaxScrubBacklog is the largest dirty-object queue considered
	// healthy (DefaultMaxScrubBacklog when 0).
	MaxScrubBacklog int
	// MaxDegradedRate is the largest fraction of degraded or failed
	// reads among the health window's reads considered healthy
	// (DefaultMaxDegradedRate when 0).
	MaxDegradedRate float64
}

// Defaults for Thresholds zero values.
const (
	DefaultMaxScrubBacklog = 32
	DefaultMaxDegradedRate = 0.25
)

// HealthCheck is one /healthz probe result.
type HealthCheck struct {
	Name  string  `json:"name"`
	OK    bool    `json:"ok"`
	Value float64 `json:"value"`
	Limit float64 `json:"limit,omitempty"`
	Note  string  `json:"note,omitempty"`
}

// Health is the /healthz response body.
type Health struct {
	Healthy bool          `json:"healthy"`
	Checks  []HealthCheck `json:"checks"`
}

// health judges the degraded-read rate over a sliding window — the last
// obs.DefaultSLOBuckets × obs.DefaultSLOInterval, the SLO tables'
// geometry — so a server that rode out an incident goes green again once
// the window slides past it. The window is fed by delta-sampling four
// lifetime series, read directly: reads are vault.get.{ok,err}, bad reads
// vault.read.{degraded,insufficient}.
type health struct {
	Thresholds
	getOK, getErr          *obs.Histogram
	degraded, insufficient *obs.Counter

	// mu serialises samples: each reads the lifetime totals and adds
	// their delta from the previous sample's (the first taken at
	// construction, so history before the server never enters the window).
	mu                 sync.Mutex
	reads, bad         *obs.Window
	lastReads, lastBad int64
}

func newHealth(reg *obs.Registry, th Thresholds) *health {
	if th.MaxScrubBacklog <= 0 {
		th.MaxScrubBacklog = DefaultMaxScrubBacklog
	}
	if th.MaxDegradedRate <= 0 {
		th.MaxDegradedRate = DefaultMaxDegradedRate
	}
	h := &health{
		Thresholds:   th,
		getOK:        reg.Histogram("vault.get.ok", obs.LatencyBuckets()),
		getErr:       reg.Histogram("vault.get.err", obs.LatencyBuckets()),
		degraded:     reg.Counter("vault.read.degraded"),
		insufficient: reg.Counter("vault.read.insufficient"),
		reads:        obs.NewWindow(obs.DefaultSLOBuckets, obs.DefaultSLOInterval, nil),
		bad:          obs.NewWindow(obs.DefaultSLOBuckets, obs.DefaultSLOInterval, nil),
	}
	h.lastReads, h.lastBad = h.totals()
	return h
}

func (h *health) totals() (reads, bad int64) {
	return h.getOK.Count() + h.getErr.Count(), h.degraded.Load() + h.insufficient.Load()
}

// SampleHealth folds the reads since the last sample into the health
// window at time now. Every health check samples first; a long-running
// server also samples on a ticker so the window stays fed between checks.
func (s *Server) SampleHealth(now time.Time) {
	h := s.health
	h.mu.Lock()
	defer h.mu.Unlock()
	reads, bad := h.totals()
	// A registry Reset between samples makes the totals go backwards;
	// re-baseline rather than recording a negative delta.
	if d := reads - h.lastReads; d > 0 {
		h.reads.AddAt(now, d)
	}
	if d := bad - h.lastBad; d > 0 {
		h.bad.AddAt(now, d)
	}
	h.lastReads, h.lastBad = reads, bad
}

// CheckHealth runs the health probes over the window ending at now.
func (s *Server) CheckHealth(now time.Time) Health {
	h := s.health
	s.SampleHealth(now)
	backlog := HealthCheck{Name: "scrub.backlog", Limit: float64(h.MaxScrubBacklog)}
	n := len(s.vault.DirtyObjects())
	backlog.Value = float64(n)
	backlog.OK = n <= h.MaxScrubBacklog
	if !backlog.OK {
		backlog.Note = "dirty objects awaiting scrub exceed threshold"
	}

	reads, bad := h.reads.CountAt(now), h.bad.CountAt(now)
	degraded := HealthCheck{Name: "degraded.read.rate", Limit: h.MaxDegradedRate, OK: true,
		Note: fmt.Sprintf("%d reads in last %s", reads, h.reads.Span())}
	if reads > 0 {
		degraded.Value = float64(bad) / float64(reads)
		degraded.OK = degraded.Value <= h.MaxDegradedRate
	}
	if !degraded.OK {
		degraded.Note = "reads routing around failures faster than scrubbing heals them"
	}
	return Health{Healthy: backlog.OK && degraded.OK, Checks: []HealthCheck{backlog, degraded}}
}

// mountPlane adds the operations plane's routes to mux.
func (s *Server) mountPlane(mux *http.ServeMux) {
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.reg.Snapshot().WritePrometheus(w)
	})
	mux.HandleFunc("GET /snapshot", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(s.reg.Snapshot().JSON())
	})
	mux.HandleFunc("GET /traces", s.handleTraces)
	mux.HandleFunc("GET /slo", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, s.slos.Report())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		h := s.CheckHealth(time.Now())
		status := http.StatusOK
		if !h.Healthy {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, h)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	n := 10
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			writeError(w, http.StatusBadRequest, CodeBadRequest, "n must be a non-negative integer")
			return
		}
		n = v
	}
	traces := s.tracer.Recent(n)
	if r.URL.Query().Get("which") == "tail" {
		traces = s.tracer.Tail(n)
	}
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !s.tracer.Enabled() {
			fmt.Fprintln(w, "tracing disabled (flat histograms only); start with tracing on to collect spans")
		}
		for _, t := range traces {
			fmt.Fprint(w, trace.Timeline(t))
		}
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Enabled   bool           `json:"tracing_enabled"`
		Completed uint64         `json:"completed"`
		Traces    []*trace.Trace `json:"traces"`
	}{s.tracer.Enabled(), s.tracer.Completed(), traces})
}
