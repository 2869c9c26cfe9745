package obs

import (
	"sort"
	"sync"
	"time"
)

// Declarative SLOs over sliding windows. An SLOSpec names an objective
// ("availability ≥ 99.9%", "p99 get latency ≤ 100ms"); an SLO instance
// tracks good/bad events (and optionally latencies) for one subject —
// here, one tenant — over a Window, and reports compliance plus
// error-budget burn. Burn is the standard SRE ratio
//
//	burn = (1 − compliance) / (1 − objective)
//
// so burn 1.0 means "failing at exactly the rate the objective allows",
// burn 10 means the budget is being consumed 10× too fast, and burn 0
// means a clean window. The api server's /slo endpoint serializes an
// SLOTable's Report; papereval and the paper's long-horizon audit
// argument (PROPYLA-style re-protection) consume the same numbers.

// SLOSpec declares one objective. Either a pure availability SLO
// (LatencyTargetNs == 0: Record(good) feeds it) or a latency SLO
// (LatencyTargetNs > 0: Observe(ns) feeds it, good = within target).
type SLOSpec struct {
	// Name identifies the SLO ("availability", "get.latency").
	Name string
	// Objective is the target good-fraction in (0,1), e.g. 0.999.
	Objective float64
	// LatencyTargetNs, when nonzero, makes this a latency SLO: an
	// observation is good iff it completes within the target.
	LatencyTargetNs float64
	// Buckets and Interval size the sliding window; zero values take
	// DefaultSLOBuckets/DefaultSLOInterval.
	Buckets  int
	Interval time.Duration
}

// Default window geometry: 30 × 10s = a five-minute sliding window,
// short enough that a fault trips within seconds and a recovery clears
// within minutes, long enough to smooth single-request noise.
const DefaultSLOBuckets = 30

// DefaultSLOInterval is the default bucket width (see DefaultSLOBuckets).
const DefaultSLOInterval = 10 * time.Second

// SLO tracks one spec for one subject.
type SLO struct {
	spec SLOSpec
	good *Window
	bad  *Window
	lat  *Window // latency quantiles; nil for availability SLOs
}

func newSLO(spec SLOSpec) *SLO {
	if spec.Buckets <= 0 {
		spec.Buckets = DefaultSLOBuckets
	}
	if spec.Interval <= 0 {
		spec.Interval = DefaultSLOInterval
	}
	s := &SLO{
		spec: spec,
		good: NewWindow(spec.Buckets, spec.Interval, nil),
		bad:  NewWindow(spec.Buckets, spec.Interval, nil),
	}
	if spec.LatencyTargetNs > 0 {
		s.lat = NewWindow(spec.Buckets, spec.Interval, LatencyBuckets())
	}
	return s
}

// RecordAt counts one event at time now.
func (s *SLO) RecordAt(now time.Time, good bool) {
	if good {
		s.good.AddAt(now, 1)
	} else {
		s.bad.AddAt(now, 1)
	}
}

// Record counts one event now.
func (s *SLO) Record(good bool) { s.RecordAt(time.Now(), good) }

// ObserveAt records one latency sample at time now; the sample is good
// iff it is within the spec's latency target.
func (s *SLO) ObserveAt(now time.Time, ns float64) {
	if s.lat != nil {
		s.lat.ObserveAt(now, ns)
	}
	s.RecordAt(now, s.spec.LatencyTargetNs <= 0 || ns <= s.spec.LatencyTargetNs)
}

// Observe records one latency sample now.
func (s *SLO) Observe(ns float64) { s.ObserveAt(time.Now(), ns) }

// SLOStatus is one SLO's evaluated state over its current window.
type SLOStatus struct {
	Name       string  `json:"name"`
	Objective  float64 `json:"objective"`
	Good       int64   `json:"good"`
	Bad        int64   `json:"bad"`
	Compliance float64 `json:"compliance"`
	BudgetBurn float64 `json:"budget_burn"`
	// P99Ns is reported for latency SLOs (0 otherwise).
	P99Ns    float64 `json:"p99_ns,omitempty"`
	TargetNs float64 `json:"target_ns,omitempty"`
	// WindowSec is the sliding window's span in seconds.
	WindowSec float64 `json:"window_sec"`
	Met       bool    `json:"met"`
}

// StatusAt evaluates the SLO over the window ending at now. An idle
// window (no events) is compliant: absence of traffic consumes no
// budget.
func (s *SLO) StatusAt(now time.Time) SLOStatus {
	good := s.good.CountAt(now)
	bad := s.bad.CountAt(now)
	st := SLOStatus{
		Name:       s.spec.Name,
		Objective:  s.spec.Objective,
		Good:       good,
		Bad:        bad,
		Compliance: 1,
		TargetNs:   s.spec.LatencyTargetNs,
		WindowSec:  s.good.Span().Seconds(),
	}
	if total := good + bad; total > 0 {
		st.Compliance = float64(good) / float64(total)
	}
	if s.spec.Objective < 1 {
		st.BudgetBurn = (1 - st.Compliance) / (1 - s.spec.Objective)
	} else if st.Compliance < 1 {
		st.BudgetBurn = 1e9 // objective of exactly 1 leaves no budget at all
	}
	if s.lat != nil {
		st.P99Ns = s.lat.QuantileAt(now, 0.99)
	}
	st.Met = st.Compliance >= s.spec.Objective
	return st
}

// SLOTable holds per-subject (per-tenant) instances of a fixed spec
// list. Subjects are bounded like labelled metric families: past
// DefaultMaxSeries, unseen subjects share one OverflowValue row.
type SLOTable struct {
	specs []SLOSpec

	mu       sync.Mutex
	subjects map[string]map[string]*SLO // subject → spec name → SLO
}

// NewSLOTable declares a table tracking the given specs per subject.
func NewSLOTable(specs ...SLOSpec) *SLOTable {
	return &SLOTable{
		specs:    append([]SLOSpec(nil), specs...),
		subjects: make(map[string]map[string]*SLO),
	}
}

// DefaultSLOSpecs returns the service-level objectives the archive
// service tracks per tenant out of the box.
func DefaultSLOSpecs() []SLOSpec {
	return []SLOSpec{
		{Name: "availability", Objective: 0.999},
		{Name: "get.latency", Objective: 0.99, LatencyTargetNs: 100e6}, // p99 get ≤ 100ms
		{Name: "degraded.reads", Objective: 0.99},
	}
}

// Row returns every SLO for one subject keyed by spec name, creating the
// row on first use — one lock per request for callers that feed several
// SLOs per event. Past the subject bound, unseen subjects share the
// OverflowValue row.
func (t *SLOTable) Row(subject string) map[string]*SLO {
	t.mu.Lock()
	defer t.mu.Unlock()
	if row, ok := t.subjects[subject]; ok {
		return row
	}
	if len(t.subjects) >= DefaultMaxSeries {
		subject = OverflowValue
		if row, ok := t.subjects[subject]; ok {
			return row
		}
	}
	row := make(map[string]*SLO, len(t.specs))
	for _, spec := range t.specs {
		row[spec.Name] = newSLO(spec)
	}
	t.subjects[subject] = row
	return row
}

// SLOReport is an SLOTable's full evaluated state, ready for JSON at
// the /slo endpoint.
type SLOReport struct {
	Schema   string             `json:"schema"`
	Subjects []SLOSubjectReport `json:"subjects"`
}

// SLOSubjectReport is one subject's evaluated SLO list.
type SLOSubjectReport struct {
	Subject string      `json:"subject"`
	SLOs    []SLOStatus `json:"slos"`
}

// SLOReportSchema identifies the /slo payload format.
const SLOReportSchema = "securearchive/slo/v1"

// ReportAt evaluates every subject's SLOs over windows ending at now,
// sorted by subject then spec order.
func (t *SLOTable) ReportAt(now time.Time) *SLOReport {
	t.mu.Lock()
	subjects := make([]string, 0, len(t.subjects))
	rows := make([]map[string]*SLO, 0, len(t.subjects))
	for name := range t.subjects {
		subjects = append(subjects, name)
	}
	sort.Strings(subjects)
	for _, name := range subjects {
		rows = append(rows, t.subjects[name])
	}
	t.mu.Unlock()

	rep := &SLOReport{Schema: SLOReportSchema}
	for i, name := range subjects {
		sr := SLOSubjectReport{Subject: name}
		for _, spec := range t.specs {
			if s := rows[i][spec.Name]; s != nil {
				sr.SLOs = append(sr.SLOs, s.StatusAt(now))
			}
		}
		rep.Subjects = append(rep.Subjects, sr)
	}
	return rep
}

// Report evaluates every subject's SLOs over their current windows.
func (t *SLOTable) Report() *SLOReport { return t.ReportAt(time.Now()) }
