package modelcache

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"seedscan/internal/ipaddr"
	"seedscan/internal/telemetry"
	"seedscan/internal/tga"
	"seedscan/internal/tga/det"
	"seedscan/internal/tga/entropyip"
	"seedscan/internal/tga/sixgen"
	"seedscan/internal/tga/sixgraph"
	"seedscan/internal/tga/sixhit"
	"seedscan/internal/tga/sixprob"
	"seedscan/internal/tga/sixscan"
	"seedscan/internal/tga/sixsense"
	"seedscan/internal/tga/sixtree"
)

// countingBuilder wraps a real ModelBuilder and counts BuildModel calls.
type countingBuilder struct {
	tga.ModelBuilder
	builds atomic.Int64
	fail   bool
}

func (b *countingBuilder) BuildModel(seeds []ipaddr.Addr) (tga.Model, error) {
	b.builds.Add(1)
	if b.fail {
		return nil, errors.New("boom")
	}
	return b.ModelBuilder.BuildModel(seeds)
}

func someSeeds(n int) []ipaddr.Addr {
	base := ipaddr.MustParse("2001:db8::")
	out := make([]ipaddr.Addr, n)
	for i := range out {
		out[i] = base.AddLo(uint64(i))
	}
	return out
}

func TestGetOrBuildCachesByKey(t *testing.T) {
	c := New()
	reg := telemetry.NewRegistry()
	c.SetTelemetry(reg)
	b := &countingBuilder{ModelBuilder: sixtree.New()}
	seeds := someSeeds(100)

	m1, err := c.GetOrBuild(context.Background(), b, seeds)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := c.GetOrBuild(context.Background(), b, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Fatal("same key returned different models")
	}
	if got := b.builds.Load(); got != 1 {
		t.Fatalf("builds = %d, want 1", got)
	}
	if c.Len() != 1 {
		t.Fatalf("cache len = %d", c.Len())
	}
	if reg.Counter("tga.modelcache.hits").Load() != 1 ||
		reg.Counter("tga.modelcache.misses").Load() != 1 {
		t.Fatalf("counters hits=%d misses=%d",
			reg.Counter("tga.modelcache.hits").Load(),
			reg.Counter("tga.modelcache.misses").Load())
	}
}

func TestKeySensitivity(t *testing.T) {
	c := New()
	b := &countingBuilder{ModelBuilder: sixtree.New()}
	ctx := context.Background()
	if _, err := c.GetOrBuild(ctx, b, someSeeds(100)); err != nil {
		t.Fatal(err)
	}
	// Different seeds → different key.
	if _, err := c.GetOrBuild(ctx, b, someSeeds(101)); err != nil {
		t.Fatal(err)
	}
	// Different params → different key.
	b2 := &countingBuilder{ModelBuilder: &sixtree.Generator{MinLeaf: 8}}
	if _, err := c.GetOrBuild(ctx, b2, someSeeds(100)); err != nil {
		t.Fatal(err)
	}
	if got := b.builds.Load() + b2.builds.Load(); got != 3 {
		t.Fatalf("builds = %d, want 3", got)
	}
	if c.Len() != 3 {
		t.Fatalf("cache len = %d", c.Len())
	}
}

// TestConcurrentSingleflight: concurrent requesters of one model — here
// 6Tree, 6Scan and 6Hit sharing the leftmost tree — mine it once and all
// get the same model.
func TestConcurrentSingleflight(t *testing.T) {
	c := New()
	bs := []*countingBuilder{
		{ModelBuilder: sixtree.New()},
		{ModelBuilder: sixscan.New()},
		{ModelBuilder: sixhit.New()},
	}
	seeds := someSeeds(500)
	var wg sync.WaitGroup
	models := make([]tga.Model, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, err := c.GetOrBuild(context.Background(), bs[i%len(bs)], seeds)
			if err != nil {
				t.Error(err)
				return
			}
			models[i] = m
		}(i)
	}
	wg.Wait()
	if got := bs[0].builds.Load() + bs[1].builds.Load() + bs[2].builds.Load(); got != 1 {
		t.Fatalf("builds = %d, want 1 (singleflight)", got)
	}
	for i := 1; i < 16; i++ {
		if models[i] != models[0] {
			t.Fatal("concurrent requesters got different models")
		}
	}
}

func TestFailedBuildNotCached(t *testing.T) {
	c := New()
	b := &countingBuilder{ModelBuilder: sixtree.New(), fail: true}
	seeds := someSeeds(10)
	if _, err := c.GetOrBuild(context.Background(), b, seeds); err == nil {
		t.Fatal("expected error")
	}
	if c.Len() != 0 {
		t.Fatalf("failed build cached, len = %d", c.Len())
	}
	b.fail = false
	if _, err := c.GetOrBuild(context.Background(), b, seeds); err != nil {
		t.Fatalf("retry after failure: %v", err)
	}
	if got := b.builds.Load(); got != 2 {
		t.Fatalf("builds = %d, want 2", got)
	}
}

// TestModelParamsIsIdentity: the key is ModelParams, not the generator.
// 6Tree, 6Scan and 6Hit mine the same leftmost tree and share one entry
// and one build; DET's min-entropy tree and 6Graph's merged patterns stay
// apart; the other builders each own an entry.
func TestModelParamsIsIdentity(t *testing.T) {
	c := New()
	seeds := someSeeds(300)
	builders := []*countingBuilder{
		{ModelBuilder: sixtree.New()},
		{ModelBuilder: sixscan.New()},
		{ModelBuilder: sixhit.New()},
		{ModelBuilder: det.New()},
		{ModelBuilder: sixgraph.New()},
		{ModelBuilder: sixsense.New()},
		{ModelBuilder: sixprob.New()},
		{ModelBuilder: entropyip.New()},
		{ModelBuilder: sixgen.New()},
	}
	models := make([]tga.Model, len(builders))
	for i, b := range builders {
		m, err := c.GetOrBuild(context.Background(), b, seeds)
		if err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
		models[i] = m
	}
	if models[1] != models[0] || models[2] != models[0] {
		t.Fatal("6Scan and 6Hit did not adopt 6Tree's tree")
	}
	if builders[0].builds.Load() != 1 || builders[1].builds.Load() != 0 || builders[2].builds.Load() != 0 {
		t.Fatalf("leftmost-tree builds = %d/%d/%d, want 1/0/0",
			builders[0].builds.Load(), builders[1].builds.Load(), builders[2].builds.Load())
	}
	for _, b := range builders[3:] {
		if b.builds.Load() != 1 {
			t.Errorf("%s built %d times, want 1", b.Name(), b.builds.Load())
		}
	}
	if want := len(builders) - 2; c.Len() != want {
		t.Fatalf("cache len = %d, want %d", c.Len(), want)
	}
	if _, ok := models[3].(*tga.TreeModel); !ok || models[3] == models[0] {
		t.Fatalf("DET got model %T shared with the leftmost tree", models[3])
	}
	if _, ok := models[4].(*sixgraph.Model); !ok {
		t.Fatalf("6Graph got model %T", models[4])
	}
}
