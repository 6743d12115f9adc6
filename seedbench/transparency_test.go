package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"

	"seedscan/internal/experiment"
	"seedscan/internal/experiment/grid"
	"seedscan/internal/hitlistdb"
	"seedscan/internal/longitudinal"
	"seedscan/internal/proto"
	"seedscan/internal/serve"
	"seedscan/internal/tga/all"
)

// tinyConfig is a world small enough for the whole grid to run in
// seconds.
func tinyConfig() experiment.EnvConfig { return envConfig(defaultSeed, 40, 0.05, gridBudget) }

// gridOutputs runs the tga-grid specs through Env.Grid() and returns the
// rendered output and every cell's result.
func gridOutputs(t *testing.T, env *experiment.Env) (string, map[string]grid.CellResult) {
	t.Helper()
	ctx := context.Background()
	fig3, err := env.RunRQ1aCtx(ctx, icmpOnly, all.Names, gridBudget)
	if err != nil {
		t.Fatal(err)
	}
	t4, err := env.RunTable4Ctx(ctx, all.Names, gridBudget)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := planResults(ctx, env)
	if err != nil {
		t.Fatal(err)
	}
	return fig3.Render() + fig3.RenderFigure() + t4.Render(), cells
}

// TestWrappersTransparentGrid pins that installing every timing wrapper
// changes no output: the grid through Env.Grid() with the exchange timer
// and timed prober installed, and the traced replay with the TGA,
// model-cache and dealiaser wrappers too, give byte-identical outputs
// and per-cell hits to a plain environment.
func TestWrappersTransparentGrid(t *testing.T) {
	text, cells := gridOutputs(t, experiment.NewEnv(tinyConfig()))

	rec := newRecorder()
	wtext, wcells := gridOutputs(t, tracedEnv(rec, tinyConfig()))
	if wtext != text {
		t.Errorf("rendered output differs with wrappers installed:\n%s\nvs\n%s", wtext, text)
	}
	if !reflect.DeepEqual(wcells, cells) {
		t.Error("per-cell results differ with wrappers installed")
	}
	if len(rec.snapshot()) == 0 {
		t.Error("wrappers recorded no spans")
	}

	rec = newRecorder()
	env := tracedEnv(rec, tinyConfig())
	plan := grid.Plan(gridSpecs(env)...)
	got := replayGrid(context.Background(), env, rec, plan)
	for _, pc := range plan {
		id := pc.Cell.ID()
		if got[id].err != nil {
			t.Fatalf("replay %s: %v", id, got[id].err)
		}
		if !reflect.DeepEqual(got[id].CellResult, cells[id]) {
			t.Errorf("replayed cell %s differs from Env.Grid(): %+v vs %+v", id, got[id].Outcome, cells[id].Outcome)
		}
	}
	a := analyze(rec.snapshot())
	for _, name := range []string{"grid.cell", "tga.model_build", "tga.init", "tga.generate", "tga.feedback", "scanner.scan", "world.exchange", "alias.split"} {
		if a.get(name).count == 0 {
			t.Errorf("replay recorded no %s spans", name)
		}
	}
}

// TestWrappersTransparentSurvey pins the same for the seed survey.
func TestWrappersTransparentSurvey(t *testing.T) {
	cfg := envConfig(defaultSeed, 40, 0.2, 0)
	text, _, _ := surveyPass(experiment.NewEnv(cfg), nil)
	rec := newRecorder()
	wtext, _, _ := surveyPass(tracedEnv(rec, cfg), rec)
	if wtext != text {
		t.Errorf("survey output differs with wrappers installed:\n%s\nvs\n%s", wtext, text)
	}
}

// TestWrappersTransparentHitlist pins the same for the daemon's epoch
// reports and for lookups answered through the timed handler.
func TestWrappersTransparentHitlist(t *testing.T) {
	cfg := envConfig(defaultSeed, 40, 0.2, 0)
	epochs := func(env *experiment.Env) (string, *hitlistdb.Store) {
		store, err := hitlistdb.OpenStore(filepath.Join(t.TempDir(), "store"))
		if err != nil {
			t.Fatal(err)
		}
		d, err := longitudinal.New(longitudinal.Config{
			World: env.World, Prober: env.Prober, Corpus: env.Full.SortedSlice(), Proto: proto.ICMP,
			Epochs: 4, Fingerprint: env.Fingerprint(), Publish: store, AliasedPrefixes: env.Offline.Prefixes(),
		})
		if err != nil {
			t.Fatal(err)
		}
		reps, err := d.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return reportsDigest(reps, len(reps)), store
	}
	plain, store := epochs(experiment.NewEnv(cfg))
	rec := newRecorder()
	wrapped, _ := epochs(tracedEnv(rec, cfg))
	if wrapped != plain {
		t.Error("epoch reports differ with wrappers installed")
	}

	srv, err := serve.New(store)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range store.Current().Snapshot().Responsive.Sorted()[:5] {
		url := "/v1/lookup?addr=" + a.String()
		want, got := httptest.NewRecorder(), httptest.NewRecorder()
		srv.ServeHTTP(want, httptest.NewRequest(http.MethodGet, url, nil))
		req := httptest.NewRequest(http.MethodGet, url, nil)
		req.Header.Set(reqHeader, "7")
		timedHandler{inner: srv, rec: rec}.ServeHTTP(got, req)
		if got.Body.String() != want.Body.String() || got.Code != want.Code {
			t.Errorf("lookup %s through the timed handler: %d %q, want %d %q", a, got.Code, got.Body, want.Code, want.Body)
		}
	}
	if h := analyze(rec.snapshot()).get("serve.handler"); h.count != 5 || h.n != 35 {
		t.Errorf("handler spans: %d with request index sum %d, want 5 and 35", h.count, h.n)
	}
}
