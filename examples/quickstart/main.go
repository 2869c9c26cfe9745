// Quickstart: archive a document into a simulated geo-dispersed cluster
// with information-theoretic confidentiality, renew integrity across a
// signature-scheme rotation, re-encode it under a new encoding, lose
// nodes, and read it back. A public index archived beside it under plain
// erasure coding gets a hash chain, and the re-encode to secret sharing
// upgrades that to a commitment chain.
//
//	go run ./examples/quickstart
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"

	"securearchive/internal/cluster"
	"securearchive/internal/core"
	"securearchive/internal/group"
	"securearchive/internal/sig"
	"securearchive/internal/tstamp"
)

func main() {
	ctx := context.Background()
	// An 8-node cluster spread across six regions.
	c := cluster.New(8, nil)
	fmt.Println("cluster regions:", c.Regions())

	// Ask the policy engine what a century-long horizon demands.
	rec, err := core.Recommend(core.Requirements{
		HorizonYears: 100,
		MaxOverhead:  10,
		Nodes:        8,
		Threshold:    4,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("policy: %s — %s\n", rec.Encoding.Name(), rec.Rationale)
	for _, cv := range rec.Caveats {
		fmt.Println("  caveat:", cv)
	}

	// Build a vault with the recommended encoding. (group.Test keeps the
	// Pedersen commitments fast and the demo on the group the figures use;
	// production omits WithGroup and gets group.Default(), 2048-bit p and
	// 256-bit q, at ~0.25 ms a commitment.)
	vault, err := core.NewVault(c, rec.Encoding, core.WithGroup(group.Test()))
	if err != nil {
		log.Fatal(err)
	}

	document := []byte("CENSUS 2026 — individual records, sealed for 100 years")
	if err := vault.Put(ctx, "census-2026", document); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("archived %q: %.1fx storage cost\n", "census-2026", vault.StorageCost("census-2026"))

	// Decades pass: Ed25519 is looking shaky. Rotate the integrity chain
	// BEFORE it breaks.
	c.AdvanceEpoch()
	if err := vault.RenewIntegrity(ctx, "census-2026", sig.ECDSAP256); err != nil {
		log.Fatal(err)
	}
	fmt.Println("integrity chain renewed with", sig.ECDSAP256)

	// The mobile adversary forces periodic share refresh too.
	if rec.NeedsProactiveRenewal {
		if err := vault.RenewShares(ctx, "census-2026"); err != nil {
			log.Fatal(err)
		}
		fmt.Println("shares proactively re-randomised")
	}

	// A public index of the archive needs no confidentiality: plain
	// erasure coding, whose nodes hold its bytes in the clear, so its
	// chain is a cheap hash chain.
	vault.Encoding = core.Erasure{K: 4, N: 8}
	index := []byte("census-2026: 1 sealed record set, opens 2126")
	if err := vault.Put(ctx, "census-index", index); err != nil {
		log.Fatal(err)
	}
	mode := func(id string) string {
		if vault.Chain(id).Mode == tstamp.RefHash {
			return "hash"
		}
		return "commitment"
	}
	indexMode := mode("census-index")

	// The adversary is expected to reach more nodes: re-encode with a
	// privacy threshold of 5. The vault's Encoding is what new writes and
	// renewals use, while each object keeps reading under the encoding
	// that wrote it; its next share renewal moves it to the new one. The
	// index moves too, and now that its bytes are hidden its hash chain,
	// which publishes their digest, is upgraded to a commitment chain.
	vault.Encoding = core.SecretSharing{T: 5, N: 8}
	for id, want := range map[string][]byte{"census-2026": document, "census-index": index} {
		if err := vault.RenewShares(ctx, id); err != nil {
			log.Fatal(err)
		}
		if got, err := vault.Get(ctx, id); err != nil || !bytes.Equal(got, want) {
			log.Fatalf("re-encoded %s does not read back: %v", id, err)
		}
	}
	fmt.Printf("re-encoded to %s: read back ok\n", vault.Encoding.Name())
	fmt.Printf("index chain: %s -> %s\n", indexMode, mode("census-index"))

	// Two regions burn down.
	c.SetOnline(2, false)
	c.SetOnline(5, false)

	got, err := vault.Get(ctx, "census-2026")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered %d bytes with 2 nodes offline: %q...\n", len(got), got[:22])

	// The chain still proves integrity even if Ed25519 broke after the
	// rotation.
	breaks := sig.BreakSchedule{sig.Ed25519: 2}
	if err := vault.Chain("census-2026").Verify(10, breaks); err != nil {
		log.Fatal(err)
	}
	fmt.Println("timestamp chain valid despite a (post-rotation) Ed25519 break")
}
