package systems

import (
	"crypto/rand"
	"testing"

	"securearchive/internal/adversary"
	"securearchive/internal/cluster"
	"securearchive/internal/core"
)

// TestTable1MatchesPaper pins every row — each system's own Classify, and
// the cost band measured from the cluster — to the paper's Table 1.
func TestTable1MatchesPaper(t *testing.T) {
	rows, err := Table1(Table1Config{Nodes: 8, ObjectLen: 16 << 10}, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("%d rows, want 8", len(rows))
	}
	want := Table1Expected()
	for _, r := range rows {
		w, ok := want[r.System]
		if !ok {
			t.Errorf("unexpected system %q", r.System)
			continue
		}
		if r.TransitClass != w.Transit {
			t.Errorf("%s transit %s, paper says %s", r.System, r.TransitClass, w.Transit)
		}
		if r.RestClass != w.Rest {
			t.Errorf("%s rest %s, paper says %s", r.System, r.RestClass, w.Rest)
		}
		if r.CostBand != w.Cost {
			t.Errorf("%s cost %s (measured %.2fx), paper says %s", r.System, r.CostBand, r.MeasuredCost, w.Cost)
		}
	}
}

// TestPlannerPredictionsMatchSimulation: run the actual mobile adversary
// against a simulated archive under both a safe and an unsafe plan, and
// confirm the planner's verdicts.
func TestPlannerPredictionsMatchSimulation(t *testing.T) {
	const objects, threshold, advBudget, epochs = 4, 3, 1, 24
	for _, perEpoch := range []int{4, 1} { // 4 → refresh every epoch (safe); 1 → every 4 epochs (unsafe)
		plan, err := core.PlanRenewal(objects, perEpoch, threshold, advBudget)
		if err != nil {
			t.Fatal(err)
		}
		c := cluster.New(8, nil)
		arch, err := NewVSRArchive(c, 6, threshold)
		if err != nil {
			t.Fatal(err)
		}
		refs := make([]*Ref, objects)
		data := []byte("planned object")
		for i := range refs {
			ref, err := arch.Store(string(rune('a'+i)), data, rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			refs[i] = ref
		}
		adv := adversary.NewMobile(advBudget, 31)
		next := 0
		for e := 0; e < epochs; e++ {
			adv.CorruptRandom(c)
			c.AdvanceEpoch()
			for k := 0; k < perEpoch; k++ {
				if err := arch.Renew(refs[next%objects], rand.Reader); err != nil {
					t.Fatal(err)
				}
				next++
			}
		}
		breached := false
		for _, ref := range refs {
			if res := arch.Breach(adv, ref, adversary.Breaks{}, 1000); res.Violated {
				breached = true
			}
		}
		if plan.Safe && breached {
			t.Fatalf("planner said safe (perEpoch=%d) but simulation breached", perEpoch)
		}
		if !plan.Safe && !breached {
			// Unsafe means "not guaranteed", not "certainly breached";
			// with this adversary (budget 1, random targeting) and a
			// 4-epoch window, a breach is likely but not certain. Accept
			// either outcome but log it.
			t.Logf("unsafe plan (perEpoch=%d) survived this run — unsafe is a non-guarantee, not a certainty", perEpoch)
		}
	}
}
