// TGA driver benchmarks and the BENCH_tga.json baseline writer.
//
// The paper's grids run every TGA over every protocol with the seed
// treatment held fixed, so the same seed model is mined once per cell in
// a naive driver. The optimized driver attacks both halves of that cost:
// the model cache mines each (generator, treatment) model once and reuses
// it across protocols, and the pipelined driver overlaps candidate
// generation with scanning. The bench measures exactly that workload —
// the full offline-generator × protocol grid — serial-and-uncached
// versus pipelined-and-cached, in the same process on the same world.
//
// `make bench-tga` regenerates BENCH_tga.json from these measurements;
// see README.md for the format.
package seedscan

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"seedscan/internal/ipaddr"
	"seedscan/internal/proto"
	"seedscan/internal/scanner"
	"seedscan/internal/tga"
	"seedscan/internal/tga/all"
	"seedscan/internal/tga/modelcache"
	"seedscan/internal/world"
)

// tgaBenchGens are the offline generators the driver pipelines; the
// online TGAs run lockstep by design and are not part of this bench.
var tgaBenchGens = []string{"EIP", "6Gen", "6Tree", "6Graph", "6Prob"}

// tgaBenchWorld builds the bench fixture: a mid-sized world and a seed
// set large enough that model mining is a real cost (and large enough to
// cross tga.ParallelMineThreshold, as paper-scale seed sets do).
func tgaBenchWorld(tb testing.TB, seedCount int) (*scanner.Scanner, []ipaddr.Addr) {
	tb.Helper()
	w := world.New(world.Config{Seed: 42, NumASes: 300, LossRate: 0})
	seeds := w.NewSampler(1000).Hosts(seedCount)
	if len(seeds) < seedCount/2 {
		tb.Fatalf("world too small: %d seeds of %d requested", len(seeds), seedCount)
	}
	w.SetEpoch(world.ScanEpoch)
	return scanner.New(w.Link(), scanner.WithSecret(5)), seeds
}

// runTGAGrid runs the offline-generator × protocol grid once and returns
// the wall time plus the total hit count (for cross-mode sanity checks).
func runTGAGrid(tb testing.TB, sc *scanner.Scanner, seeds []ipaddr.Addr,
	budget int, serial bool, cache *modelcache.Cache) (time.Duration, int) {
	tb.Helper()
	hits := 0
	start := time.Now()
	for _, name := range tgaBenchGens {
		for _, p := range proto.All {
			cfg := tga.RunConfig{
				Budget: budget, BatchSize: 512, Proto: p,
				Prober: sc, ExcludeSeeds: true, Serial: serial,
			}
			if cache != nil {
				cfg.Models = cache
			}
			res, err := tga.RunContext(context.Background(), all.MustNew(name), seeds, cfg)
			if err != nil {
				tb.Fatalf("%s/%s: %v", name, p, err)
			}
			hits += len(res.Hits)
		}
	}
	return time.Since(start), hits
}

// TestTGABenchSmoke is the always-on CI shape of the bench: one tiny grid
// in each mode, asserting only that both modes find the same hits — no
// timing gate, so it cannot flake on loaded runners.
func TestTGABenchSmoke(t *testing.T) {
	sc, seeds := tgaBenchWorld(t, 6000)
	_, serialHits := runTGAGrid(t, sc, seeds, 1000, true, nil)
	_, pipedHits := runTGAGrid(t, sc, seeds, 1000, false, modelcache.New())
	if serialHits != pipedHits {
		t.Fatalf("hit totals diverge: serial %d, pipelined+cached %d", serialHits, pipedHits)
	}
}

// BenchmarkTGAGrid reports wall time per grid for both driver modes.
func BenchmarkTGAGrid(b *testing.B) {
	sc, seeds := tgaBenchWorld(b, 20000)
	b.Run("serial-uncached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runTGAGrid(b, sc, seeds, 4000, true, nil)
		}
	})
	b.Run("pipelined-cached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runTGAGrid(b, sc, seeds, 4000, false, modelcache.New())
		}
	})
}

// --- BENCH_tga.json baseline writer ---

var tgaBenchOut = flag.String("tga-bench-out", "",
	"write the TGA driver baseline JSON to this path (see make bench-tga)")

// tgaBenchBaseline is the BENCH_tga.json schema; the grid speedup is the
// acceptance metric.
type tgaBenchBaseline struct {
	Schema           string   `json:"schema"`
	GoVersion        string   `json:"go_version"`
	CPUs             int      `json:"cpus"`
	Seeds            int      `json:"seeds"`
	BudgetPerCell    int      `json:"budget_per_cell"`
	Generators       []string `json:"generators"`
	Protocols        int      `json:"protocols"`
	SerialSeconds    float64  `json:"serial_seconds"`
	PipelinedSeconds float64  `json:"pipelined_cached_seconds"`
	Speedup          float64  `json:"speedup"`
	HitsPerGrid      int      `json:"hits_per_grid"`
}

// TestWriteTGABenchBaseline regenerates BENCH_tga.json when run with
// -tga-bench-out (wired to `make bench-tga`); otherwise it is skipped.
// It measures the full offline grid serial-and-uncached versus
// pipelined-and-cached (best of two passes each, interleaved to share
// any machine-load noise) and fails below a 1.5x speedup.
func TestWriteTGABenchBaseline(t *testing.T) {
	if *tgaBenchOut == "" {
		t.Skip("pass -tga-bench-out to regenerate BENCH_tga.json")
	}
	const seedCount = 80000
	const budget = 4000
	sc, seeds := tgaBenchWorld(t, seedCount)

	// Warm page caches and the allocator with one small pass.
	runTGAGrid(t, sc, seeds, 500, true, nil)

	serialBest := time.Duration(1<<63 - 1)
	pipedBest := serialBest
	var serialHits, pipedHits int
	for pass := 0; pass < 2; pass++ {
		d, h := runTGAGrid(t, sc, seeds, budget, true, nil)
		if d < serialBest {
			serialBest = d
		}
		serialHits = h
		// A fresh cache per pass: the measurement includes the one
		// mandatory build per generator, exactly as a real grid pays it.
		d, h = runTGAGrid(t, sc, seeds, budget, false, modelcache.New())
		if d < pipedBest {
			pipedBest = d
		}
		pipedHits = h
	}
	if serialHits != pipedHits {
		t.Fatalf("hit totals diverge: serial %d, pipelined+cached %d", serialHits, pipedHits)
	}

	out := tgaBenchBaseline{
		Schema:           "seedscan-bench-tga/v1",
		GoVersion:        runtime.Version(),
		CPUs:             runtime.NumCPU(),
		Seeds:            len(seeds),
		BudgetPerCell:    budget,
		Generators:       tgaBenchGens,
		Protocols:        len(proto.All),
		SerialSeconds:    serialBest.Seconds(),
		PipelinedSeconds: pipedBest.Seconds(),
		Speedup:          serialBest.Seconds() / pipedBest.Seconds(),
		HitsPerGrid:      serialHits,
	}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*tgaBenchOut, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("wrote %s: serial %.2fs, pipelined+cached %.2fs, speedup %.2fx\n",
		*tgaBenchOut, out.SerialSeconds, out.PipelinedSeconds, out.Speedup)
	if out.Speedup < 1.5 {
		t.Errorf("grid speedup %.2fx below the 1.5x acceptance floor", out.Speedup)
	}
}
