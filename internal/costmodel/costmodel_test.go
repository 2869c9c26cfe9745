package costmodel

import (
	"errors"
	"math"
	"testing"
)

func approx(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol
}

// TestPaperFiguresReproduce is the heart of experiment E3: the four
// read-out durations the paper states, to the paper's own precision.
func TestPaperFiguresReproduce(t *testing.T) {
	want := map[string]float64{
		"Oak Ridge HPSS":       6.75,  // "could be read in 6.75 months"
		"ECMWF MARS":           10.35, // "yields 10.35 months"
		"CERN EOS":             8.3,   // "8.3 months for 230PB and 909TB/day"
		"Pergamum (10PB tape)": 0.76,  // "yielding 0.76 months"
	}
	rows, err := Report()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 4", len(rows))
	}
	for _, r := range rows {
		w, ok := want[r.Archive]
		if !ok {
			t.Fatalf("unexpected archive %q", r.Archive)
		}
		// Within 3% of the paper's stated figure: three rows reproduce to
		// two decimals under the Gregorian month; the HPSS row's published
		// value implies a slightly different month convention (see the
		// DaysPerMonth comment in costmodel.go).
		if math.Abs(r.ReadOnlyMo-w)/w > 0.03 {
			t.Errorf("%s: read-only %.2f months, paper says %.2f (>3%% off)", r.Archive, r.ReadOnlyMo, w)
		}
		if !approx(r.WithWriteMo, 2*r.ReadOnlyMo, 1e-9) {
			t.Errorf("%s: write-back multiplier broken", r.Archive)
		}
		if !approx(r.WithReserveMo, 4*r.ReadOnlyMo, 1e-9) {
			t.Errorf("%s: reserve multiplier broken", r.Archive)
		}
	}
}

func TestScenarioMultiplier(t *testing.T) {
	if (Scenario{}).Multiplier() != 1 {
		t.Fatal("base multiplier")
	}
	if (Scenario{WriteBack: true}).Multiplier() != 2 {
		t.Fatal("write multiplier")
	}
	if (Scenario{ForegroundReserve: true}).Multiplier() != 2 {
		t.Fatal("reserve multiplier")
	}
	if (Scenario{WriteBack: true, ForegroundReserve: true}).Multiplier() != 4 {
		t.Fatal("combined multiplier")
	}
}

func TestReencryptMonthsValidation(t *testing.T) {
	if _, err := ReencryptMonths(Archive{TotalBytes: 0, ReadBytesPerDay: 1}, Scenario{}); !errors.Is(err, ErrBadParams) {
		t.Fatalf("zero size: %v", err)
	}
	if _, err := ReencryptMonths(Archive{TotalBytes: 1, ReadBytesPerDay: 0}, Scenario{}); !errors.Is(err, ErrBadParams) {
		t.Fatalf("zero rate: %v", err)
	}
}

// TestZettabyteExtrapolation: at CERN-EOS-class throughput, a 1 ZB archive
// takes many *decades* to re-encrypt — the paper's "many years" claim with
// room to spare.
func TestZettabyteExtrapolation(t *testing.T) {
	months, err := Sweep([]float64{1e18, 1e19, 1e20, 1e21}, 909e12, Scenario{WriteBack: true, ForegroundReserve: true})
	if err != nil {
		t.Fatal(err)
	}
	// 1 EB at 909 TB/day ×4 = ~4400 days ≈ 146 months ≈ 12 years.
	if months[0] < 100 || months[0] > 200 {
		t.Fatalf("1 EB campaign %.0f months, want ≈146", months[0])
	}
	// Each decade of size is a decade of duration (linear model).
	for i := 1; i < len(months); i++ {
		if !approx(months[i]/months[i-1], 10, 0.01) {
			t.Fatal("sweep not linear in size")
		}
	}
	// 1 ZB: over a century.
	if months[3] < 12*100 {
		t.Fatalf("1 ZB campaign %.0f months, want > a century", months[3])
	}
}

func TestSweepValidation(t *testing.T) {
	if _, err := Sweep([]float64{1}, 0, Scenario{}); !errors.Is(err, ErrBadParams) {
		t.Fatalf("zero rate: %v", err)
	}
}

func TestExposureWindowEqualsCampaign(t *testing.T) {
	a := PaperArchives()[0]
	s := Scenario{WriteBack: true}
	e, _ := ExposureWindow(a, s)
	r, _ := ReencryptMonths(a, s)
	if e != r {
		t.Fatal("exposure window must equal campaign duration")
	}
}

// TestRenewalCampaignScalesQuadraticallyInN reproduces the §3.2 warning
// that share renewal hits the re-encryption wall: traffic per object is
// Θ(n²·L), so doubling the committee quadruples campaign time.
func TestRenewalCampaignScalesQuadraticallyInN(t *testing.T) {
	const totalBytes = 1e15 // 1 PB archive
	const objBytes = 1e6    // 1 MB objects
	const netPerDay = 100e12
	m8, err := RenewalCampaign(totalBytes, objBytes, 8, netPerDay)
	if err != nil {
		t.Fatal(err)
	}
	m16, err := RenewalCampaign(totalBytes, objBytes, 16, netPerDay)
	if err != nil {
		t.Fatal(err)
	}
	ratio := m16 / m8
	if ratio < 3.5 || ratio > 4.6 {
		t.Fatalf("n 8→16 renewal ratio %.2f, want ≈4", ratio)
	}
}

func TestRenewalCampaignValidation(t *testing.T) {
	if _, err := RenewalCampaign(0, 1, 4, 1); !errors.Is(err, ErrBadParams) {
		t.Fatalf("zero total: %v", err)
	}
	if _, err := RenewalCampaign(1, 1, 1, 1); !errors.Is(err, ErrBadParams) {
		t.Fatalf("n=1: %v", err)
	}
}

// TestRenewalVsReencryptComparable: for a PB-scale archive with a
// committee of 8 and a fat inter-node network, renewal is in the same
// order of magnitude as re-encryption — neither escapes the I/O wall.
func TestRenewalVsReencryptComparable(t *testing.T) {
	reenc, _ := ReencryptMonths(Archive{TotalBytes: 1e16, ReadBytesPerDay: 400e12}, Scenario{WriteBack: true})
	renew, _ := RenewalCampaign(1e16, 1e6, 8, 400e12)
	if renew < reenc/10 {
		t.Fatalf("renewal (%.1f mo) implausibly cheaper than re-encryption (%.1f mo)", renew, reenc)
	}
}
