// Command papereval regenerates every evaluation artifact of "Secure
// Archival is Hard... Really Hard" (HotStorage '24) from the running
// implementation: Figure 1 (storage cost vs security level, measured),
// Table 1 (system classifications with measured costs), and the §3.2
// re-encryption arithmetic — printing paper-stated values next to
// measured ones.
//
// Usage:
//
//	papereval [-figure1] [-table1] [-reencrypt] [-renewal] [-advantage] [-all] [-obj KiB]
//
// With no selection flag it runs everything.
package main

import (
	"bytes"
	"crypto/rand"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"securearchive/internal/advantage"
	"securearchive/internal/core"
	"securearchive/internal/costmodel"
	"securearchive/internal/otp"
	"securearchive/internal/pss"
	"securearchive/internal/shamir"
	"securearchive/internal/systems"
)

func main() {
	figure1 := flag.Bool("figure1", false, "regenerate Figure 1 (cost vs security)")
	table1 := flag.Bool("table1", false, "regenerate Table 1 (system summary)")
	reencrypt := flag.Bool("reencrypt", false, "regenerate the §3.2 re-encryption table")
	renewal := flag.Bool("renewal", false, "price proactive renewal campaigns (§3.2)")
	adv := flag.Bool("advantage", false, "measure Definition 2.1/2.2 distinguishing advantages")
	all := flag.Bool("all", false, "run everything")
	objKiB := flag.Int("obj", 256, "object size in KiB for measurements")
	flag.Usage = func() {
		fmt.Fprint(flag.CommandLine.Output(), "usage: papereval [flags]\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if !*figure1 && !*table1 && !*reencrypt && !*renewal && !*adv {
		*all = true
	}
	if *all || *figure1 {
		runFigure1(os.Stdout, *objKiB)
	}
	if *all || *table1 {
		runTable1(os.Stdout, *objKiB)
	}
	if *all || *reencrypt {
		runReencrypt(os.Stdout)
	}
	if *all || *renewal {
		runRenewal(os.Stdout)
	}
	if *all || *adv {
		runAdvantage()
	}
}

func runFigure1(out io.Writer, objKiB int) {
	fmt.Fprintln(out, "=== Figure 1: storage cost vs security level (measured) ===")
	cfg := core.DefaultFigure1Config()
	cfg.ObjectLen = objKiB << 10
	pts, err := core.Figure1(cfg, rand.Reader)
	if err != nil {
		fatal(err)
	}
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "encoding\tsecurity\tlevel\tleak-resilient\toverhead (x)\n")
	for _, p := range pts {
		fmt.Fprintf(w, "%s\t%s\t%d\t%v\t%.2f\n",
			p.Encoding, p.SecurityClass, p.SecurityLevel, p.LeakageResilient, p.Overhead)
	}
	w.Flush()
	if bad := core.Figure1Shape(pts); len(bad) > 0 {
		fmt.Fprintln(out, "SHAPE VIOLATIONS:", bad)
	} else {
		fmt.Fprintln(out, "shape check: all of the paper's qualitative orderings hold")
	}
	fmt.Fprintln(out)
}

func runTable1(out io.Writer, objKiB int) {
	fmt.Fprintln(out, "=== Table 1: system summary (classifications + measured cost) ===")
	cfg := systems.DefaultTable1Config()
	cfg.ObjectLen = objKiB << 10
	rows, err := systems.Table1(cfg, rand.Reader)
	if err != nil {
		fatal(err)
	}
	want := systems.Table1Expected()
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "system\ttransit\trest\tcost band\tmeasured (x)\tpaper row matches\n")
	for _, r := range rows {
		exp, ok := want[r.System]
		match := ok && exp.Transit == r.TransitClass && exp.Rest == r.RestClass && exp.Cost == r.CostBand
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%.2f\t%v\n",
			r.System, r.TransitClass, r.RestClass, r.CostBand, r.MeasuredCost, match)
	}
	w.Flush()
	fmt.Fprintln(out)
}

func runReencrypt(out io.Writer) {
	fmt.Fprintln(out, "=== §3.2: archive re-encryption campaign durations ===")
	paper := map[string]float64{
		"Oak Ridge HPSS":       6.75,
		"ECMWF MARS":           10.35,
		"CERN EOS":             8.3,
		"Pergamum (10PB tape)": 0.76,
	}
	rows, err := costmodel.Report()
	if err != nil {
		fatal(err)
	}
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "archive\tpaper (mo)\tread-only (mo)\t+write x2 (mo)\t+reserve x4 (mo)\n")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.2f\t%.2f\t%.2f\t%.2f\n",
			r.Archive, paper[r.Archive], r.ReadOnlyMo, r.WithWriteMo, r.WithReserveMo)
	}
	w.Flush()

	fmt.Fprintln(out, "\nextrapolation at CERN-EOS throughput (909 TB/day), write+reserve:")
	sizes := []float64{1e18, 1e19, 1e20, 1e21}
	labels := []string{"1 EB", "10 EB", "100 EB", "1 ZB"}
	months, err := costmodel.Sweep(sizes, 909e12, costmodel.Scenario{WriteBack: true, ForegroundReserve: true})
	if err != nil {
		fatal(err)
	}
	for i := range sizes {
		fmt.Fprintf(out, "  %-7s %8.0f months (%.0f years)\n", labels[i], months[i], months[i]/12)
	}
	fmt.Fprintln(out)
}

func runRenewal(out io.Writer) {
	fmt.Fprintln(out, "=== §3.2: proactive share-renewal campaign pricing ===")
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "committee n\ttraffic per 1MB object\tcampaign for 1PB @ 400TB/day (mo)\n")
	for _, n := range []int{4, 8, 16, 32, 64} {
		per := pss.RenewalTraffic(n, 1<<20)
		mo, err := costmodel.RenewalCampaign(1e15, 1<<20, n, 400e12)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(w, "%d\t%.1f MB\t%.2f\n", n, float64(per)/1e6, mo)
	}
	w.Flush()
	fmt.Fprintln(out)
}

// runAdvantage measures the paper's Definitions 2.1/2.2 empirically:
// the distinguishing advantage of a concrete test family against each
// encoding's adversary view.
func runAdvantage() {
	fmt.Println("=== Definitions 2.1/2.2: measured distinguishing advantage ===")
	m0 := make([]byte, 64)
	m1 := bytes.Repeat([]byte{0xFF}, 64)

	otpSampler := func(m []byte) advantage.Sampler {
		return func() ([]byte, error) {
			pad, err := otp.NewRandomPad(len(m), rand.Reader)
			if err != nil {
				return nil, err
			}
			ct, err := pad.Encrypt(m)
			if err != nil {
				return nil, err
			}
			return ct.Body, nil
		}
	}
	shamirSampler := func(m []byte) advantage.Sampler {
		return func() ([]byte, error) {
			shares, err := shamir.Split(m, 3, 2, rand.Reader)
			if err != nil {
				return nil, err
			}
			return shares[0].Payload, nil
		}
	}
	plainSampler := func(m []byte) advantage.Sampler {
		return func() ([]byte, error) { return m[:16], nil }
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "adversary view\tmax advantage\tbest distinguisher\tverdict\n")
	for _, row := range []struct {
		name string
		s0   advantage.Sampler
		s1   advantage.Sampler
	}{
		{"one-time pad ciphertext", otpSampler(m0), otpSampler(m1)},
		{"1 Shamir share (t=2)", shamirSampler(m0), shamirSampler(m1)},
		{"systematic erasure shard", plainSampler(m0), plainSampler(m1)},
	} {
		res, err := advantage.Estimate(row.s0, row.s1, 2000, 8)
		if err != nil {
			fatal(err)
		}
		verdict := "indistinguishable (ε ≈ 0)"
		if res.MaxAdvantage > 0.5 {
			verdict = "fully distinguishable"
		}
		fmt.Fprintf(w, "%s\t%.3f\t%s\t%s\n", row.name, res.MaxAdvantage, res.Distinguisher, verdict)
	}
	w.Flush()
	fmt.Println()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "papereval:", err)
	os.Exit(1)
}
