package addrminer

import (
	"context"
	"path/filepath"
	"testing"

	"seedscan/internal/ipaddr"
	"seedscan/internal/proto"
	"seedscan/internal/scanner"
	"seedscan/internal/tga"
	"seedscan/internal/world"
)

func setup(t testing.TB) (*world.World, *scanner.Scanner, []ipaddr.Addr) {
	t.Helper()
	w := world.New(world.Config{Seed: 42, NumASes: 60, LossRate: 0})
	samp := w.NewSampler(500)
	seeds := samp.Hosts(2000)
	w.SetEpoch(world.ScanEpoch)
	return w, scanner.New(w.Link(), scanner.WithSecret(5)), seeds
}

func TestMetadata(t *testing.T) {
	g := New(nil)
	if g.Name() != "AddrMiner" || !g.Online() {
		t.Fatal("metadata wrong")
	}
	if err := g.Init(nil); err == nil {
		t.Fatal("empty seeds + empty memory accepted")
	}
}

func TestMemoryAccumulatesAcrossRuns(t *testing.T) {
	_, sc, seeds := setup(t)
	store := NewStore()

	run := func() int {
		g := New(store)
		res, err := tga.RunContext(context.Background(), g, seeds, tga.RunConfig{
			Budget: 2500, BatchSize: 512, Proto: proto.ICMP,
			Prober: sc, ExcludeSeeds: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return len(res.Hits)
	}
	first := run()
	if first == 0 {
		t.Fatal("first run found nothing")
	}
	memAfterFirst := store.Len()
	if memAfterFirst == 0 {
		t.Fatal("memory empty after a run with hits")
	}
	run()
	if store.Len() < memAfterFirst {
		t.Fatal("memory shrank")
	}
}

func TestMemorySeedsSecondRun(t *testing.T) {
	// A second run can start from memory alone: long-term measurement
	// without re-collecting seeds.
	_, sc, seeds := setup(t)
	store := NewStore()
	g := New(store)
	if _, err := tga.RunContext(context.Background(), g, seeds, tga.RunConfig{
		Budget: 2500, BatchSize: 512, Proto: proto.ICMP, Prober: sc, ExcludeSeeds: true,
	}); err != nil {
		t.Fatal(err)
	}
	if store.Len() == 0 {
		t.Skip("no hits to remember in this configuration")
	}
	g2 := New(store)
	res, err := tga.RunContext(context.Background(), g2, nil, tga.RunConfig{
		Budget: 1500, BatchSize: 512, Proto: proto.ICMP, Prober: sc,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Generated == 0 {
		t.Fatal("memory-only run generated nothing")
	}
}

func TestStorePersistence(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "memory.txt")

	s, err := LoadStore(path) // missing file: empty store
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatal("missing file should load empty")
	}
	s.Remember([]ipaddr.Addr{ipaddr.MustParse("2001:db8::1"), ipaddr.MustParse("2001:db8::2")})
	if err := s.Save(""); err != nil {
		t.Fatal(err)
	}
	reloaded, err := LoadStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if reloaded.Len() != 2 {
		t.Fatalf("reloaded %d addresses", reloaded.Len())
	}
}

func TestAliasedHitsNotRemembered(t *testing.T) {
	store := NewStore()
	g := New(store)
	if err := g.Init([]ipaddr.Addr{ipaddr.MustParse("2001:db8::1"), ipaddr.MustParse("2001:db8::2")}); err != nil {
		t.Fatal(err)
	}
	batch := g.NextBatch(16)
	if len(batch) == 0 {
		t.Fatal("no batch")
	}
	g.Feedback([]tga.ProbeResult{
		{Addr: batch[0], Active: true, Aliased: true},
	})
	if store.Len() != 0 {
		t.Fatal("aliased hit was remembered")
	}
}
