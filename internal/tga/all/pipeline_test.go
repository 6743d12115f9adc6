package all_test

import (
	"context"
	"testing"

	"seedscan/internal/alias"
	"seedscan/internal/ipaddr"
	"seedscan/internal/proto"
	"seedscan/internal/scanner"
	"seedscan/internal/telemetry"
	"seedscan/internal/tga"
	"seedscan/internal/tga/all"
	"seedscan/internal/tga/modelcache"
)

// offlineNames are the generators the driver pipelines.
var offlineNames = []string{"6Tree", "6Graph", "6Gen", "EIP", "6Prob"}

func runResultsEqual(t *testing.T, name string, want, got *tga.RunResult) {
	t.Helper()
	if got.Generated != want.Generated {
		t.Errorf("%s: generated %d, serial %d", name, got.Generated, want.Generated)
	}
	if got.Exhausted != want.Exhausted {
		t.Errorf("%s: exhausted %v, serial %v", name, got.Exhausted, want.Exhausted)
	}
	if len(got.Hits) != len(want.Hits) {
		t.Fatalf("%s: %d hits, serial %d", name, len(got.Hits), len(want.Hits))
	}
	for i := range want.Hits {
		if got.Hits[i] != want.Hits[i] {
			t.Fatalf("%s: hit %d = %v, serial %v", name, i, got.Hits[i], want.Hits[i])
		}
	}
	if len(got.AliasedHits) != len(want.AliasedHits) {
		t.Fatalf("%s: %d aliased, serial %d", name, len(got.AliasedHits), len(want.AliasedHits))
	}
	for i := range want.AliasedHits {
		if got.AliasedHits[i] != want.AliasedHits[i] {
			t.Fatalf("%s: aliased %d differs", name, i)
		}
	}
}

// TestPipelineMatchesSerial pins the tentpole invariant: for offline
// generators the pipelined driver produces the serial driver's RunResult
// exactly — same hits in the same order, same generated count, same
// exhaustion — on a real world/scanner/dealiaser fixture. Run under -race
// this also exercises the producer/consumer handoff.
func TestPipelineMatchesSerial(t *testing.T) {
	_, sc, seeds := setup(t)
	const budget = 3000
	for _, name := range offlineNames {
		cfg := tga.RunConfig{
			Budget: budget, BatchSize: 512, Proto: proto.ICMP,
			Prober: sc, ExcludeSeeds: true,
		}
		cfg.Dealiaser = alias.New(alias.ModeOnline, nil, sc, proto.ICMP, 91)
		cfg.Serial = true
		serial, err := tga.RunContext(context.Background(), all.MustNew(name), seeds, cfg)
		if err != nil {
			t.Fatalf("%s serial: %v", name, err)
		}
		cfg.Dealiaser = alias.New(alias.ModeOnline, nil, sc, proto.ICMP, 91)
		cfg.Serial = false
		piped, err := tga.RunContext(context.Background(), all.MustNew(name), seeds, cfg)
		if err != nil {
			t.Fatalf("%s pipelined: %v", name, err)
		}
		runResultsEqual(t, name, serial, piped)
	}
}

// TestPipelineWithModelCacheMatchesSerial adds the cross-run model cache:
// the first pipelined run mines the model, the second adopts it, and both
// match the serial baseline.
func TestPipelineWithModelCacheMatchesSerial(t *testing.T) {
	_, sc, seeds := setup(t)
	const budget = 2000
	cache := modelcache.New()
	reg := telemetry.NewRegistry()
	cache.SetTelemetry(reg)
	for _, name := range offlineNames {
		cfg := tga.RunConfig{
			Budget: budget, BatchSize: 512, Proto: proto.ICMP,
			Prober: sc, ExcludeSeeds: true, Serial: true,
		}
		serial, err := tga.RunContext(context.Background(), all.MustNew(name), seeds, cfg)
		if err != nil {
			t.Fatalf("%s serial: %v", name, err)
		}
		cfg.Serial = false
		cfg.Models = cache
		for run := 0; run < 2; run++ {
			res, err := tga.RunContext(context.Background(), all.MustNew(name), seeds, cfg)
			if err != nil {
				t.Fatalf("%s cached run %d: %v", name, run, err)
			}
			runResultsEqual(t, name, serial, res)
		}
	}
	if misses := reg.Counter("tga.modelcache.misses").Load(); misses != int64(len(offlineNames)) {
		t.Errorf("misses = %d, want %d (one mine per generator)", misses, len(offlineNames))
	}
	if hits := reg.Counter("tga.modelcache.hits").Load(); hits != int64(len(offlineNames)) {
		t.Errorf("hits = %d, want %d (second runs reuse)", hits, len(offlineNames))
	}
}

// TestModelCacheSharedAcrossProtocols is the paper's reuse pattern: the
// seed treatment is fixed, only the probed port varies, and the mined
// model is built once.
func TestModelCacheSharedAcrossProtocols(t *testing.T) {
	_, sc, seeds := setup(t)
	cache := modelcache.New()
	reg := telemetry.NewRegistry()
	cache.SetTelemetry(reg)
	for _, p := range proto.All {
		cfg := tga.RunConfig{
			Budget: 1000, BatchSize: 512, Proto: p,
			Prober: sc, ExcludeSeeds: true, Models: cache,
		}
		if _, err := tga.RunContext(context.Background(), all.MustNew("6Tree"), seeds, cfg); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
	}
	if misses := reg.Counter("tga.modelcache.misses").Load(); misses != 1 {
		t.Errorf("misses = %d, want 1", misses)
	}
	if hits := reg.Counter("tga.modelcache.hits").Load(); hits != int64(len(proto.All)-1) {
		t.Errorf("hits = %d, want %d", hits, len(proto.All)-1)
	}
}

// TestPipelineCancellation stops a pipelined run mid-flight and expects a
// partial result plus ctx.Err, like the lockstep driver.
func TestPipelineCancellation(t *testing.T) {
	_, sc, seeds := setup(t)
	ctx, cancel := context.WithCancel(context.Background())
	pr := &cancelAfterProber{inner: sc, cancel: cancel, after: 2}
	res, err := tga.RunContext(ctx, all.MustNew("6Tree"), seeds, tga.RunConfig{
		Budget: 100000, BatchSize: 256, Proto: proto.ICMP,
		Prober: pr, ExcludeSeeds: true,
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || res.Generated == 0 {
		t.Fatal("no partial result")
	}
	if res.Generated >= 100000 {
		t.Fatal("run was not actually cut short")
	}
}

// cancelAfterProber cancels the run's context after a fixed number of
// scan calls, forwarding each scan to the real scanner. It deliberately
// does not implement ContextProber, so the driver notices the
// cancellation at the batch boundary.
type cancelAfterProber struct {
	inner  *scanner.Scanner
	cancel context.CancelFunc
	after  int
	calls  int
}

func (p *cancelAfterProber) Scan(ts []ipaddr.Addr, pr proto.Protocol) []scanner.Result {
	p.calls++
	if p.calls >= p.after {
		p.cancel()
	}
	return p.inner.Scan(ts, pr)
}

// ScanActive completes the shared scanner.Prober surface; the driver
// scans through Scan.
func (p *cancelAfterProber) ScanActive(ts []ipaddr.Addr, pr proto.Protocol) []ipaddr.Addr {
	return p.inner.ScanActive(ts, pr)
}

// TestSharedTreeAdoptionMatchesOwnInit: 6Scan and 6Hit adopting the
// leftmost tree 6Tree mined (one build, two cache hits) run exactly as
// they do from their own Init, through online feedback and 6Hit's tree
// rebuilds (every 16 rounds; 3000/128 gives 24).
func TestSharedTreeAdoptionMatchesOwnInit(t *testing.T) {
	_, sc, seeds := setup(t)
	cache := modelcache.New()
	reg := telemetry.NewRegistry()
	cache.SetTelemetry(reg)
	own := tga.RunConfig{
		Budget: 3000, BatchSize: 128, Proto: proto.ICMP,
		Prober: sc, ExcludeSeeds: true,
	}
	shared := own
	shared.Models = cache
	if _, err := tga.RunContext(context.Background(), all.MustNew("6Tree"), seeds, shared); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"6Scan", "6Hit"} {
		want, err := tga.RunContext(context.Background(), all.MustNew(name), seeds, own)
		if err != nil {
			t.Fatalf("%s own Init: %v", name, err)
		}
		got, err := tga.RunContext(context.Background(), all.MustNew(name), seeds, shared)
		if err != nil {
			t.Fatalf("%s adopted: %v", name, err)
		}
		runResultsEqual(t, name, want, got)
	}
	if misses := reg.Counter("tga.modelcache.misses").Load(); misses != 1 {
		t.Errorf("misses = %d, want 1 (one leftmost tree)", misses)
	}
	if hits := reg.Counter("tga.modelcache.hits").Load(); hits != 2 {
		t.Errorf("hits = %d, want 2", hits)
	}
}

// TestTreeTGAsIgnoreDuplicateSeeds: the space tree is mined over the
// deduplicated seeds, so 6Tree and 6Scan run on a seed list with
// duplicates exactly as on the deduplicated list.
func TestTreeTGAsIgnoreDuplicateSeeds(t *testing.T) {
	_, sc, seeds := setup(t)
	dups := append(append([]ipaddr.Addr(nil), seeds...), seeds[:len(seeds)/3]...)
	cfg := tga.RunConfig{
		Budget: 2000, BatchSize: 256, Proto: proto.ICMP,
		Prober: sc, ExcludeSeeds: true,
	}
	for _, name := range []string{"6Tree", "6Scan"} {
		want, err := tga.RunContext(context.Background(), all.MustNew(name), seeds, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := tga.RunContext(context.Background(), all.MustNew(name), dups, cfg)
		if err != nil {
			t.Fatalf("%s with duplicates: %v", name, err)
		}
		runResultsEqual(t, name, want, got)
	}
}
