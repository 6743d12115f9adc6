// Long-term measurement example: the AddrMiner extension.
//
// The paper consumes the AddrMiner hitlist as a seed source (§5.1) —
// the output of a DET-derived generator run continuously with persistent
// memory. This example runs three successive measurement campaigns with a
// shared memory store: each campaign's confirmed hits seed the next, so
// yield compounds; between campaigns the world's clock advances, so some
// remembered addresses churn away, exactly the staleness the paper
// measures in the published hitlists.
//
//	go run ./examples/longterm
package main

import (
	"context"
	"fmt"
	"log"

	"seedscan/internal/ipaddr"
	"seedscan/internal/proto"
	"seedscan/internal/scanner"
	"seedscan/internal/tga"
	"seedscan/internal/tga/addrminer"
	"seedscan/internal/world"
)

func main() {
	w := world.New(world.Config{Seed: 61, NumASes: 120})
	w.SetEpoch(world.CollectEpoch)
	samp := w.NewSampler(1)
	seeds := samp.Hosts(3000)
	sc := scanner.New(w.Link(), scanner.WithSecret(2))

	ctx := context.Background()
	store := addrminer.NewStore()
	fmt.Printf("initial seeds: %d; memory: empty\n\n", len(seeds))

	for campaign := 1; campaign <= 3; campaign++ {
		// Later campaigns run at the scan epoch: part of the remembered
		// population has churned by then.
		if campaign > 1 {
			w.SetEpoch(world.ScanEpoch)
		}
		g := addrminer.New(store)
		res, err := tga.RunContext(ctx, g, seeds, tga.RunConfig{
			Budget: 6000, BatchSize: 1024, Proto: proto.ICMP,
			Prober: sc, ExcludeSeeds: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		stale := 0
		for _, a := range store.Snapshot() {
			if !w.ActiveOnAny(a, w.Epoch()) {
				stale++
			}
		}
		fmt.Printf("campaign %d: %5d hits this run; memory %6d addresses (%d stale at current epoch)\n",
			campaign, len(res.Hits), store.Len(), stale)
		// From campaign 2 on, rely on memory alone — long-term mining
		// needs no fresh external seeds.
		seeds = []ipaddr.Addr{}
	}
	fmt.Println("\nMemory compounds across campaigns while churn quietly invalidates a")
	fmt.Println("share of it — why the paper re-verifies 'responsive' hitlists (§6.2).")
}
