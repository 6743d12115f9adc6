package experiment

import (
	"context"
	"testing"

	"seedscan/internal/proto"
	"seedscan/internal/tga/all"
)

// The whole pipeline must be reproducible: two environments with the same
// configuration, each running experiments concurrently, must produce
// byte-identical results.
func TestEndToEndDeterminism(t *testing.T) {
	cfg := EnvConfig{NumASes: 70, CollectScale: 0.2, Budget: 2000}
	build := func() (string, string, string) {
		e := NewEnv(cfg)
		sum := e.DatasetSummary().Render()
		rq1a, err := e.RunRQ1aCtx(context.Background(), []proto.Protocol{proto.ICMP}, []string{"6Tree", "6Sense", "DET"}, 2000)
		if err != nil {
			t.Fatal(err)
		}
		rq4, err := e.RunRQ4Ctx(context.Background(), []proto.Protocol{proto.ICMP}, []string{"6Tree", "6Gen"}, 2000)
		if err != nil {
			t.Fatal(err)
		}
		return sum, rq1a.Render(), rq4.Render()
	}
	s1, a1, f1 := build()
	s2, a2, f2 := build()
	if s1 != s2 {
		t.Error("Table 3 not reproducible")
	}
	if a1 != a2 {
		t.Error("RQ1.a not reproducible")
	}
	if f1 != f2 {
		t.Error("RQ4 not reproducible")
	}
}

// TestWidthEquivalence: the grid's fan-out width changes wall-clock time
// only. Fig. 3 and Table 4 over all eight TGAs — concurrent cells sharing
// space trees through the model cache — render identically serially and
// four wide.
func TestWidthEquivalence(t *testing.T) {
	render := func(workers int) string {
		e := NewEnv(EnvConfig{NumASes: 70, CollectScale: 0.2, Budget: 1000, Workers: workers})
		fig3, err := e.RunRQ1aCtx(context.Background(), []proto.Protocol{proto.ICMP}, all.Names, 1000)
		if err != nil {
			t.Fatal(err)
		}
		t4, err := e.RunTable4Ctx(context.Background(), all.Names, 1000)
		if err != nil {
			t.Fatal(err)
		}
		return fig3.Render() + fig3.RenderFigure() + t4.Render()
	}
	if serial, wide := render(1), render(4); serial != wide {
		t.Fatalf("Workers 1 and 4 differ:\n%s\n---\n%s", serial, wide)
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	e1 := NewEnv(EnvConfig{WorldSeed: 5, NumASes: 70, CollectScale: 0.2})
	e2 := NewEnv(EnvConfig{WorldSeed: 6, NumASes: 70, CollectScale: 0.2})
	if e1.DatasetSummary().Render() == e2.DatasetSummary().Render() {
		t.Fatal("different world seeds produced identical summaries")
	}
}
