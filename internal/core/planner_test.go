package core

import (
	"errors"
	"testing"
)

func TestPlanRenewalSafety(t *testing.T) {
	// 100 objects, budget 50/epoch → refresh every 2 epochs. Adversary
	// with budget 1 vs threshold 3 needs 3 epochs: safe.
	p, err := PlanRenewal(100, 50, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.RefreshIntervalEpochs != 2 || p.GatherEpochs != 3 || !p.Safe {
		t.Fatalf("plan: %+v", p)
	}
	// Budget 25/epoch → refresh every 4 epochs > 3: unsafe.
	p, _ = PlanRenewal(100, 25, 3, 1)
	if p.Safe {
		t.Fatalf("stale plan declared safe: %+v", p)
	}
	// Equal interval and gather time: unsafe (strict inequality).
	p, _ = PlanRenewal(90, 30, 3, 1)
	if p.RefreshIntervalEpochs != 3 || p.Safe {
		t.Fatalf("boundary plan: %+v", p)
	}
	// No adversary: always safe.
	p, _ = PlanRenewal(1000000, 1, 3, 0)
	if !p.Safe {
		t.Fatal("no-adversary plan unsafe")
	}
}

func TestPlanRenewalValidation(t *testing.T) {
	if _, err := PlanRenewal(0, 1, 1, 1); !errors.Is(err, ErrBadPlan) {
		t.Fatalf("zero objects: %v", err)
	}
	if _, err := PlanRenewal(1, 0, 1, 1); !errors.Is(err, ErrBadPlan) {
		t.Fatalf("zero renewals: %v", err)
	}
}

func TestMinRenewalsPerEpoch(t *testing.T) {
	// threshold 3, budget 1 → gather 3 epochs → need refresh ≤ 2 epochs →
	// for 100 objects: ceil(100/2) = 50 per epoch.
	r, err := MinRenewalsPerEpoch(100, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r != 50 {
		t.Fatalf("min renewals = %d, want 50", r)
	}
	// The returned budget must actually be safe, and one less must not.
	p, _ := PlanRenewal(100, r, 3, 1)
	if !p.Safe {
		t.Fatal("minimum budget not safe")
	}
	p, _ = PlanRenewal(100, r-1, 3, 1)
	if p.Safe {
		t.Fatal("sub-minimum budget safe: bound not tight")
	}
	// Budget ≥ threshold: no rate helps.
	if _, err := MinRenewalsPerEpoch(100, 3, 3); !errors.Is(err, ErrBadPlan) {
		t.Fatalf("hopeless case: %v", err)
	}
	// No adversary.
	r, err = MinRenewalsPerEpoch(100, 3, 0)
	if err != nil || r != 1 {
		t.Fatalf("no adversary: r=%d err=%v", r, err)
	}
}
