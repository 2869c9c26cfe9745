// Command attacksim runs the paper's threat model against every Table 1
// system: Harvest-Now-Decrypt-Later campaigns (E4), mobile-adversary vs
// proactive-renewal races (E5), the local-leakage attack on Shamir
// sharing with its LRSS counter (E8), and an availability campaign that
// reads every system through a continuously faulty cluster — rotating
// node outages, transient errors, bit rot — to measure how far the
// degraded k-of-n read paths carry each design.
//
// Usage:
//
//	attacksim -campaign hndl|mobile|leakage|faults|all [-epochs N] [-budget B] [-seed S]
//	          [-transient P] [-offline K] [-corrupt P]
//
// No campaign attacks the commitment group itself.
package main

import (
	"crypto/rand"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"securearchive/internal/adversary"
	"securearchive/internal/cascade"
	"securearchive/internal/cluster"
	"securearchive/internal/lrss"
	"securearchive/internal/obs"
	"securearchive/internal/shamir"
	"securearchive/internal/systems"
)

var payload = []byte("the archived secret: decades of confidentiality required")

func main() {
	campaign := flag.String("campaign", "all", "hndl | mobile | leakage | faults | all")
	epochs := flag.Int("epochs", 16, "epochs the adversary operates")
	budget := flag.Int("budget", 1, "node corruptions per epoch")
	seed := flag.Int64("seed", 42, "adversary randomness seed")
	transient := flag.Float64("transient", 0.2, "faults: per-op transient-error probability")
	offline := flag.Int("offline", 2, "faults: nodes offline at a time (rotating)")
	corrupt := flag.Float64("corrupt", 0.01, "faults: per-read bit-rot probability")
	flag.Usage = func() {
		fmt.Fprint(flag.CommandLine.Output(), "usage: attacksim -campaign hndl|mobile|leakage|faults|all [flags]\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	switch *campaign {
	case "hndl":
		runHNDL(os.Stdout, *epochs, *budget, *seed)
	case "mobile":
		runMobile(os.Stdout, *epochs, *budget, *seed)
	case "leakage":
		runLeakage()
	case "faults":
		runFaults(*epochs, *seed, *transient, *offline, *corrupt)
	case "all":
		runHNDL(os.Stdout, *epochs, *budget, *seed)
		runMobile(os.Stdout, *epochs, *budget, *seed)
		runLeakage()
		runFaults(*epochs, *seed, *transient, *offline, *corrupt)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// buildSystems constructs all eight systems on a fresh 8-node cluster.
func buildSystems() (map[string]systems.Archive, *cluster.Cluster, error) {
	c := cluster.New(8, nil)
	out := map[string]systems.Archive{}
	var err error
	add := func(name string, sys systems.Archive, e error) {
		if err == nil && e != nil {
			err = fmt.Errorf("%s: %w", name, e)
			return
		}
		if e == nil {
			out[name] = sys
		}
	}
	cloud, e := systems.NewCloudAES(c, 4, 2)
	add("cloud", cloud, e)
	asl, e := systems.NewArchiveSafeLT(c, nil, 4, 2)
	add("archivesafe", asl, e)
	ars, e := systems.NewAONTRS(c, 4, 6)
	add("aontrs", ars, e)
	pot, e := systems.NewPOTSHARDS(c, 6, 3)
	add("potshards", pot, e)
	vsr, e := systems.NewVSRArchive(c, 6, 3)
	add("vsr", vsr, e)
	lin, e := systems.NewLINCOS(c, 6, 3, 7)
	add("lincos", lin, e)
	has, e := systems.NewHasDPSS(c, 6, 3)
	add("hasdpss", has, e)
	return out, c, err
}

func dataFor(name string) []byte {
	if name == "hasdpss" {
		return []byte("a 28-byte master key secret!")
	}
	return payload
}

var doomsday = adversary.Breaks{
	Ciphers: map[cascade.Scheme]int{
		cascade.AES256CTR: 100, cascade.ChaCha20: 100, cascade.SHA256CTR: 100,
	},
	HashBroken: 100,
}

func runHNDL(out io.Writer, epochs, budget int, seed int64) {
	fmt.Fprintln(out, "=== E4: Harvest Now, Decrypt Later (no renewals; all crypto breaks at epoch 100) ===")
	sys, c, err := buildSystems()
	if err != nil {
		fatal(err)
	}
	refs := map[string]*systems.Ref{}
	for name, s := range sys {
		ref, err := s.Store("obj-"+name, dataFor(name), rand.Reader)
		if err != nil {
			fatal(err)
		}
		refs[name] = ref
	}
	adv := adversary.NewMobile(budget, seed)
	for e := 0; e < epochs; e++ {
		adv.CorruptRandom(c)
		c.AdvanceEpoch()
	}
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "system\tat harvest time\tat doomsday (epoch 100)\treason\n")
	for _, name := range []string{"cloud", "archivesafe", "aontrs", "potshards", "vsr", "lincos", "hasdpss"} {
		early := sys[name].Breach(adv, refs[name], doomsday, c.Epoch())
		late := sys[name].Breach(adv, refs[name], doomsday, 100)
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\n", sys[name].Name(), verdict(early), verdict(late), late.Reason)
	}
	w.Flush()
	fmt.Fprintln(out)
}

func runMobile(out io.Writer, epochs, budget int, seed int64) {
	fmt.Fprintln(out, "=== E5: mobile adversary vs proactive renewal ===")
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "system\trenewing\tbreached\tdetail\n")
	for _, renew := range []bool{false, true} {
		sys, c, err := buildSystems()
		if err != nil {
			fatal(err)
		}
		refs := map[string]*systems.Ref{}
		for name, s := range sys {
			ref, err := s.Store("obj-"+name, dataFor(name), rand.Reader)
			if err != nil {
				fatal(err)
			}
			refs[name] = ref
		}
		adv := adversary.NewMobile(budget, seed)
		for e := 0; e < epochs; e++ {
			adv.CorruptRandom(c)
			c.AdvanceEpoch()
			if renew {
				for name, s := range sys {
					if err := s.Renew(refs[name], rand.Reader); err != nil &&
						!isUnsupported(err) {
						fatal(err)
					}
				}
			}
		}
		for _, name := range []string{"potshards", "vsr", "lincos", "hasdpss"} {
			res := sys[name].Breach(adv, refs[name], doomsday, 1000)
			fmt.Fprintf(w, "%s\t%v\t%v\t%s\n", sys[name].Name(), renew, res.Violated, res.Reason)
		}
	}
	w.Flush()
	fmt.Fprintln(out)
}

func isUnsupported(err error) bool {
	return errors.Is(err, systems.ErrNotSupported)
}

func runLeakage() {
	fmt.Println("=== E8: single-bit local leakage vs Shamir (t=2, n=24) and LRSS ===")
	secret := []byte{0xC3}
	shares, err := shamir.Split(secret, 24, 2, rand.Reader)
	if err != nil {
		fatal(err)
	}
	leaks := make([]lrss.LeakBit, len(shares))
	for i, s := range shares {
		leaks[i] = lrss.LeakFromShare(s, 0, i%8)
	}
	got, err := lrss.LeakAttackShamir(leaks)
	if err != nil {
		fmt.Println("shamir attack failed:", err)
	} else {
		fmt.Printf("Shamir: adversary leaked 1 bit/share from 24 shares, recovered secret %#02x (true %#02x) — %v\n",
			got, secret[0], got == secret[0])
	}

	p := lrss.Params{N: 24, T: 2, SourceLen: 32}
	lshares, err := lrss.Split(secret, p, rand.Reader)
	if err != nil {
		fatal(err)
	}
	lleaks := make([]lrss.LeakBit, p.N)
	for i, s := range lshares {
		lleaks[i] = lrss.LeakBit{X: byte(i + 1), Bit: i % 8, Val: (s.Masked[0] >> (i % 8)) & 1}
	}
	lgot, err := lrss.LeakAttackShamir(lleaks)
	switch {
	case err != nil:
		fmt.Println("LRSS: same attack yields no solvable system —", err)
	case lgot == secret[0]:
		fmt.Println("LRSS: attack recovered the secret (fluke — rerun)")
	default:
		fmt.Printf("LRSS: attack 'recovered' %#02x ≠ true %#02x — masked shares carry no signal\n", lgot, secret[0])
	}
	fmt.Printf("LRSS storage price: %.0fx (vs 24x for plain sharing at n=24)\n",
		lrss.StorageOverhead(p, 4096))
	fmt.Println()
}

// runFaults measures availability: every system stores one object on a
// healthy cluster, then a FaultPlan turns the substrate hostile —
// `offline` nodes down at a time in a rotating schedule, every operation
// failing transiently with probability `transient`, and bit rot striking
// reads with probability `corrupt`. Each epoch every system retrieves
// its object; a read counts only if it returns the original bytes.
// Systems that verify what they fetch (the vault's shard digests) route around
// rot; systems that combine blindly surface it as corrupted reads.
func runFaults(epochs int, seed int64, transient float64, offline int, corrupt float64) {
	fmt.Printf("=== availability: degraded reads under faults (transient=%.2f, offline=%d/8 rotating, bit-rot=%.2f) ===\n",
		transient, offline, corrupt)
	sys, c, err := buildSystems()
	if err != nil {
		fatal(err)
	}
	refs := map[string]*systems.Ref{}
	for name, s := range sys {
		ref, err := s.Store("obj-"+name, dataFor(name), rand.Reader)
		if err != nil {
			fatal(err)
		}
		refs[name] = ref
	}
	plan := &cluster.FaultPlan{
		Seed:    seed,
		Default: cluster.NodeFaults{TransientProb: transient, CorruptProb: corrupt},
		Nodes:   map[int]cluster.NodeFaults{},
	}
	nodes := c.Size()
	for i := 0; i < nodes; i++ {
		f := plan.Default
		// Rotating outage: at epoch e, nodes (e+j)%nodes for j<offline
		// are down; expressed per node as its own window list.
		for e := 0; e < epochs; e++ {
			down := false
			for j := 0; j < offline; j++ {
				if (e+j)%nodes == i {
					down = true
				}
			}
			if down {
				f.Offline = append(f.Offline, cluster.Window{From: e, To: e + 1})
			}
		}
		plan.Nodes[i] = f
	}
	c.SetFaultPlan(plan)
	names := []string{"cloud", "archivesafe", "aontrs", "potshards", "vsr", "lincos", "hasdpss"}
	// The availability table is backed by the obs registry rather than
	// ad-hoc tallies: the campaign increments faults.<name>.read.* and the
	// table reads the counters back, so `archivectl stats`-style snapshots
	// of the same run agree with what is printed here.
	reg := obs.Default()
	base := reg.Snapshot()
	outcome := func(name, kind string) *obs.Counter {
		return reg.Counter("faults." + name + ".read." + kind)
	}
	for e := 0; e < epochs; e++ {
		for _, name := range names {
			got, err := sys[name].Retrieve(refs[name])
			switch {
			case err == nil && string(got) == string(dataFor(name)):
				outcome(name, "ok").Inc()
			case err == nil:
				outcome(name, "corrupt").Inc() // rotted bytes returned
			default:
				outcome(name, "failed").Inc()
			}
		}
		c.AdvanceEpoch()
	}
	c.SetFaultPlan(nil)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "system\tgood reads\tcorrupted reads\tfailed reads\tavailability\n")
	for _, name := range names {
		ok := outcome(name, "ok").Load()
		bad := outcome(name, "corrupt").Load()
		failed := outcome(name, "failed").Load()
		fmt.Fprintf(w, "%s\t%d/%d\t%d\t%d\t%.0f%%\n",
			sys[name].Name(), ok, epochs, bad, failed, 100*float64(ok)/float64(epochs))
	}
	w.Flush()
	end := reg.Snapshot()
	moved := func(family string) int64 { return end.Sum(family) - base.Sum(family) }
	fmt.Printf("read-path telemetry: %d transient faults retried, %d shards discarded by validation, %d degraded stripe reads, %d short of threshold\n",
		moved("cluster.retry"), moved("cluster.discard"), moved("cluster.fetch.degraded"), moved("cluster.fetch.short"))
	fmt.Println()
}

func verdict(r systems.BreachResult) string {
	switch {
	case r.Full:
		return "FULL BREACH"
	case r.Violated:
		return "partial leak"
	default:
		return "holds"
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "attacksim:", err)
	os.Exit(1)
}
