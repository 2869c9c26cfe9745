// medical-records archives a hospital's long-lived records the POTSHARDS
// way — shares across administratively independent providers — but
// upgraded with everything §3–§4 of the paper asks for: verifiable
// renewal, commitment-based integrity chains, and a key-management
// committee (HasDPSS-style) for the index encryption key.
//
//	go run ./examples/medical-records
package main

import (
	"crypto/rand"
	"fmt"
	"log"

	"securearchive/internal/cluster"
	"securearchive/internal/sig"
	"securearchive/internal/systems"
)

func main() {
	// Six independent providers in six regions: no single subpoena,
	// breach, or bankruptcy exposes anything.
	providers := cluster.New(6, []string{
		"hospital-dc", "university-archive", "national-library",
		"cloud-a", "cloud-b", "overseas-trustee",
	})
	archive, err := systems.NewVSRArchive(providers, 6, 3)
	if err != nil {
		log.Fatal(err)
	}
	keyMgmt, err := systems.NewHasDPSS(providers, 6, 3)
	if err != nil {
		log.Fatal(err)
	}
	lincos, err := systems.NewLINCOS(providers, 6, 3, 99)
	if err != nil {
		log.Fatal(err)
	}

	// Patient records: bulk data through the secret-shared archive.
	records := map[string][]byte{
		"patient-0001": []byte("1961-03-02 | blood type O- | oncology history ..."),
		"patient-0002": []byte("1975-11-30 | allergies: penicillin | cardiology ..."),
		"patient-0003": []byte("2003-07-14 | genome ref GRCh38 chr7:117559590 ..."),
	}
	refs := map[string]*systems.Ref{}
	for id, rec := range records {
		ref, err := archive.Store(id, rec, rand.Reader)
		if err != nil {
			log.Fatal(err)
		}
		refs[id] = ref
	}
	fmt.Printf("archived %d records across %d providers (any 3 reconstruct, 2 reveal nothing — ever)\n",
		len(records), providers.Size())

	// The index encryption key lives with the key-management committee.
	indexKey := []byte("index-key-0123456789abcdef!!")
	keyRef, err := keyMgmt.Store("index-key", indexKey, rand.Reader)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("index key escrowed with the verifiable key-management committee")

	// One record needs decade-grade integrity evidence: LINCOS-style
	// commitment timestamping (reveals no digest of the record).
	linRef, err := lincos.Store("patient-0003-sealed", records["patient-0003"], rand.Reader)
	if err != nil {
		log.Fatal(err)
	}

	// Quarterly operations: advance the epoch, refresh everything.
	for quarter := 1; quarter <= 4; quarter++ {
		providers.AdvanceEpoch()
		for _, ref := range refs {
			if err := archive.Renew(ref, rand.Reader); err != nil {
				log.Fatal(err)
			}
		}
		if err := keyMgmt.Renew(keyRef, rand.Reader); err != nil {
			log.Fatal(err)
		}
		if err := lincos.Renew(linRef, rand.Reader); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("4 quarterly renewals done; VSR renewal traffic so far: %.1f KB\n",
		float64(archive.RenewTraffic)/1e3)
	fmt.Printf("key committee audit ledger: %d blocks, replay ok: %v\n",
		len(keyMgmt.Ledger), keyMgmt.VerifyLedger() == nil)

	// A provider goes bankrupt and its disks are auctioned; another
	// suffers a ransomware wipe.
	providers.SetOnline(1, false)
	providers.SetOnline(4, false)

	rec, err := archive.Retrieve(refs["patient-0001"])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("patient-0001 retrieved with 2 providers gone: %q...\n", rec[:24])

	key, err := keyMgmt.Retrieve(keyRef)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("index key recovered and verified share-by-share: %v\n", string(key) == string(indexKey))

	// Integrity evidence survives a signature-scheme break that happened
	// AFTER the chain rotated past it.
	chain := lincos.Chain("patient-0003-sealed")
	breaks := sig.BreakSchedule{sig.Ed25519: 2}
	fmt.Printf("sealed record chain: %d links, valid under a year-2 Ed25519 break: %v\n",
		chain.Len(), chain.Verify(providers.Epoch(), breaks) == nil)
}
