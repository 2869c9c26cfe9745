package obs

import (
	"fmt"
	"testing"
	"time"
)

// t0 is an arbitrary fixed clock origin aligned to a bucket boundary so
// the window tests are deterministic.
var t0 = time.Unix(1_700_000_000, 0)

func TestWindowSlides(t *testing.T) {
	w := NewWindow(3, time.Second, nil)
	w.AddAt(t0, 100)
	if got := w.CountAt(t0); got != 100 {
		t.Fatalf("count at t0 = %d, want 100", got)
	}
	// Two buckets later the burst is still inside the 3s window...
	if got := w.CountAt(t0.Add(2 * time.Second)); got != 100 {
		t.Fatalf("count at t0+2s = %d, want 100", got)
	}
	// ...and one more bucket later it has slid out.
	if got := w.CountAt(t0.Add(3 * time.Second)); got != 0 {
		t.Fatalf("count at t0+3s = %d, want 0 (burst expired)", got)
	}
}

func TestWindowBucketRecycled(t *testing.T) {
	w := NewWindow(3, time.Second, nil)
	w.AddAt(t0, 7)
	// Same ring slot, three seconds later: the stale epoch must be
	// discarded, not added to.
	w.AddAt(t0.Add(3*time.Second), 5)
	if got := w.CountAt(t0.Add(3 * time.Second)); got != 5 {
		t.Fatalf("count = %d, want 5 (stale bucket leaked)", got)
	}
}

func TestWindowQuantile(t *testing.T) {
	w := NewWindow(6, time.Second, LatencyBuckets())
	for i := 0; i < 90; i++ {
		w.ObserveAt(t0, 1e6) // 1ms
	}
	for i := 0; i < 10; i++ {
		w.ObserveAt(t0.Add(time.Second), 1e9) // 1s outliers, later bucket
	}
	now := t0.Add(2 * time.Second)
	if got := w.CountAt(now); got != 100 {
		t.Fatalf("count = %d, want 100", got)
	}
	p50 := w.QuantileAt(now, 0.50)
	if p50 <= 0 || p50 > 2e6 {
		t.Fatalf("p50 = %g, want ~1e6", p50)
	}
	p99 := w.QuantileAt(now, 0.99)
	if p99 < 1e8 {
		t.Fatalf("p99 = %g, want >= 1e8 (outliers visible)", p99)
	}
	// After the window slides past the outliers, the quantile recovers —
	// the property lifetime histograms cannot have.
	later := t0.Add(10 * time.Second)
	if got := w.QuantileAt(later, 0.99); got != 0 {
		t.Fatalf("p99 after slide = %g, want 0 (window empty)", got)
	}
}

func TestSLOAvailabilityBurn(t *testing.T) {
	s := newSLO(SLOSpec{Name: "availability", Objective: 0.999, Buckets: 6, Interval: time.Second})
	for i := 0; i < 990; i++ {
		s.RecordAt(t0, true)
	}
	for i := 0; i < 10; i++ {
		s.RecordAt(t0, false)
	}
	st := s.StatusAt(t0)
	if st.Compliance != 0.99 {
		t.Fatalf("compliance = %g, want 0.99", st.Compliance)
	}
	// (1-0.99)/(1-0.999) = 10× burn.
	if st.BudgetBurn < 9.99 || st.BudgetBurn > 10.01 {
		t.Fatalf("burn = %g, want 10", st.BudgetBurn)
	}
	if st.Met {
		t.Fatal("SLO reported met at 10× burn")
	}
	// Fault clears, window slides: budget burn returns to zero.
	later := t0.Add(10 * time.Second)
	st = s.StatusAt(later)
	if st.BudgetBurn != 0 || !st.Met || st.Compliance != 1 {
		t.Fatalf("after recovery: %+v, want clean window", st)
	}
}

func TestSLOLatency(t *testing.T) {
	s := newSLO(SLOSpec{Name: "get.latency", Objective: 0.99, LatencyTargetNs: 100e6, Buckets: 6, Interval: time.Second})
	for i := 0; i < 98; i++ {
		s.ObserveAt(t0, 1e6) // 1ms: good
	}
	for i := 0; i < 2; i++ {
		s.ObserveAt(t0, 500e6) // 500ms: blown target
	}
	st := s.StatusAt(t0)
	if st.Good != 98 || st.Bad != 2 {
		t.Fatalf("good/bad = %d/%d, want 98/2", st.Good, st.Bad)
	}
	if st.P99Ns < 100e6 {
		t.Fatalf("p99 = %g, want >= 100e6", st.P99Ns)
	}
	if st.Met {
		t.Fatal("latency SLO met with 2%% violations against 0.99 objective")
	}
}

func TestSLOTableReport(t *testing.T) {
	tab := NewSLOTable(DefaultSLOSpecs()...)
	tab.Row("acme")["availability"].RecordAt(t0, true)
	tab.Row("umbrella")["availability"].RecordAt(t0, false)
	tab.Row("umbrella")["get.latency"].ObserveAt(t0, 5e6)

	rep := tab.ReportAt(t0)
	if rep.Schema != SLOReportSchema {
		t.Fatalf("schema = %q", rep.Schema)
	}
	if len(rep.Subjects) != 2 {
		t.Fatalf("subjects = %d, want 2", len(rep.Subjects))
	}
	if rep.Subjects[0].Subject != "acme" || rep.Subjects[1].Subject != "umbrella" {
		t.Fatalf("subject order = %q,%q", rep.Subjects[0].Subject, rep.Subjects[1].Subject)
	}
	if len(rep.Subjects[0].SLOs) != 3 {
		t.Fatalf("acme SLO count = %d, want 3", len(rep.Subjects[0].SLOs))
	}
	var umbrellaAvail *SLOStatus
	for i := range rep.Subjects[1].SLOs {
		if rep.Subjects[1].SLOs[i].Name == "availability" {
			umbrellaAvail = &rep.Subjects[1].SLOs[i]
		}
	}
	if umbrellaAvail == nil || umbrellaAvail.Bad != 1 || umbrellaAvail.Met {
		t.Fatalf("umbrella availability = %+v, want 1 bad, not met", umbrellaAvail)
	}
}

func TestSLOTableSubjectOverflow(t *testing.T) {
	tab := NewSLOTable(SLOSpec{Name: "availability", Objective: 0.999})
	for i := 0; i < DefaultMaxSeries; i++ {
		tab.Row(fmt.Sprintf("t%02d", i))["availability"].RecordAt(t0, true)
	}
	tab.Row("extra-1")["availability"].RecordAt(t0, false) // lands on overflow row
	tab.Row("extra-2")["availability"].RecordAt(t0, false) // same row

	rep := tab.ReportAt(t0)
	if len(rep.Subjects) != DefaultMaxSeries+1 {
		t.Fatalf("subjects = %d, want %d (the bound plus overflow)", len(rep.Subjects), DefaultMaxSeries+1)
	}
	var over *SLOSubjectReport
	for i := range rep.Subjects {
		if rep.Subjects[i].Subject == OverflowValue {
			over = &rep.Subjects[i]
		}
	}
	if over == nil || over.SLOs[0].Bad != 2 {
		t.Fatalf("overflow row = %+v, want 2 bad", over)
	}
}
