package core_test

import (
	"context"
	"fmt"
	"log"

	"securearchive/internal/cluster"
	"securearchive/internal/core"
)

// Example walks the framework's happy path: ask the policy engine for an
// encoding matching a century-long confidentiality horizon, archive into
// a vault, lose nodes, recover.
func Example() {
	rec, err := core.Recommend(core.Requirements{
		HorizonYears: 100,
		MaxOverhead:  10,
		Nodes:        8,
		Threshold:    4,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("encoding:", rec.Encoding.Name())
	fmt.Println("needs renewal:", rec.NeedsProactiveRenewal)

	c := cluster.New(8, nil)
	vault, err := core.NewVault(c, rec.Encoding)
	if err != nil {
		log.Fatal(err)
	}
	if err := vault.Put(context.Background(), "deed", []byte("the land grant of 2026")); err != nil {
		log.Fatal(err)
	}
	c.SetOnline(1, false)
	c.SetOnline(6, false)
	got, err := vault.Get(context.Background(), "deed")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered with 2 nodes down: %s\n", got)
	// Output:
	// encoding: Secret Sharing
	// needs renewal: true
	// recovered with 2 nodes down: the land grant of 2026
}

// ExampleRecommend_unsatisfiable shows the paper's trade-off in error
// form: a century horizon with a near-erasure budget and compressible
// data has no encoding.
func ExampleRecommend_unsatisfiable() {
	_, err := core.Recommend(core.Requirements{
		HorizonYears: 100,
		MaxOverhead:  1.1,
		Nodes:        8,
		Threshold:    4,
	})
	fmt.Println("satisfiable:", err == nil)
	// Output:
	// satisfiable: false
}

// ExamplePlanRenewal sizes a renewal schedule against the mobile
// adversary.
func ExamplePlanRenewal() {
	plan, err := core.PlanRenewal(100000, 40000, 3, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("refresh interval (epochs):", plan.RefreshIntervalEpochs)
	fmt.Println("adversary gather time (epochs):", plan.GatherEpochs)
	fmt.Println("safe:", plan.Safe)
	// Output:
	// refresh interval (epochs): 3
	// adversary gather time (epochs): 3
	// safe: false
}
