package main

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"seedscan/internal/alias"
	"seedscan/internal/experiment"
	"seedscan/internal/experiment/grid"
	"seedscan/internal/ipaddr"
	"seedscan/internal/metrics"
	"seedscan/internal/proto"
	"seedscan/internal/seeds"
	"seedscan/internal/telemetry"
	"seedscan/internal/tga"
	"seedscan/internal/tga/all"
	"seedscan/internal/tga/modelcache"
	"seedscan/internal/world"
)

// tga-grid sizes: Figure 3 and Table 4 over the paper's eight TGAs on
// ICMP, as `experiments -run fig3,table4` runs them, scaled so one study
// pass takes about two seconds on 2 CPUs.
const (
	gridASes   = 150
	gridScale  = 0.1
	gridBudget = 3000
)

var icmpOnly = []proto.Protocol{proto.ICMP}

// gridSpecs are the workload's specs, in cmd/experiments' run order.
func gridSpecs(env *experiment.Env) []grid.Spec {
	return []grid.Spec{env.SpecRQ1a(icmpOnly, all.Names, gridBudget), env.SpecTable4(all.Names, gridBudget)}
}

// cellClock is a grid.Store that checkpoints nothing and times each
// executed cell: the engine calls Get right before it executes a cell and
// Put right after. It records the interval between cell completions and
// each cell's execution time.
type cellClock struct {
	mu     sync.Mutex
	last   time.Time
	gaps   []float64
	starts map[string]time.Time
	execs  []float64
}

func (c *cellClock) Len() int     { return 0 }
func (c *cellClock) Close() error { return nil }

func (c *cellClock) Get(key string) (grid.CellResult, bool) {
	c.mu.Lock()
	c.starts[key] = time.Now()
	c.mu.Unlock()
	return grid.CellResult{}, false
}

func (c *cellClock) Put(key string, _ grid.Cell, _ grid.CellResult) error {
	c.mu.Lock()
	now := time.Now()
	c.gaps = append(c.gaps, now.Sub(c.last).Seconds())
	c.execs = append(c.execs, now.Sub(c.starts[key]).Seconds())
	c.last = now
	c.mu.Unlock()
	return nil
}

// gridPass is one untraced study pass: a fresh environment, then both
// specs through Env.Grid() and their rendering.
type gridPass struct {
	env         *experiment.Env
	setup, wall time.Duration
	render      time.Duration
	gaps, execs []float64
	text        string
}

func runGridPass(ctx context.Context, seed uint64) (gridPass, error) {
	clock := &cellClock{starts: map[string]time.Time{}}
	cfg := envConfig(seed, gridASes, gridScale, gridBudget)
	cfg.GridStore = clock
	t0 := time.Now()
	env := experiment.NewEnv(cfg)
	t1 := time.Now()
	clock.last = t1
	fig3, err := env.RunRQ1aCtx(ctx, icmpOnly, all.Names, gridBudget)
	if err != nil {
		return gridPass{}, err
	}
	t4, err := env.RunTable4Ctx(ctx, all.Names, gridBudget)
	if err != nil {
		return gridPass{}, err
	}
	t2 := time.Now()
	text := fig3.Render() + fig3.RenderFigure() + t4.Render()
	t3 := time.Now()
	return gridPass{env: env, setup: t1.Sub(t0), wall: t3.Sub(t1), render: t3.Sub(t2), gaps: clock.gaps, execs: clock.execs, text: text}, nil
}

// cellHits is a cell's outcome and an order-free digest of its hits.
type cellHits struct {
	out  metrics.Outcome
	hits uint64
}

func hitsOf(r grid.CellResult) cellHits {
	s := append([]ipaddr.Addr(nil), r.Hits...)
	sort.Slice(s, func(i, j int) bool { return s[i].Less(s[j]) })
	return cellHits{r.Outcome, ipaddr.Digest(s)}
}

// planResults reads every planned cell's result back from env's engine,
// which memoizes completed cells in-process (nothing re-executes).
func planResults(ctx context.Context, env *experiment.Env) (map[string]grid.CellResult, error) {
	spec := grid.Spec{Name: "seedbench readback"}
	for _, pc := range grid.Plan(gridSpecs(env)...) {
		spec.Cells = append(spec.Cells, pc.Cell)
	}
	rs, err := env.Grid().Run(ctx, spec)
	if err != nil {
		return nil, err
	}
	out := make(map[string]grid.CellResult, len(spec.Cells))
	for _, c := range spec.Cells {
		out[c.ID()] = rs.Of(c)
	}
	return out, nil
}

func runGrid(cfg runConfig, res *result) error {
	ctx := context.Background()
	deadline := time.Now().Add(cfg.seconds)
	var setups, walls, gaps, execs []float64
	first := ""
	for pass := 0; pass < minPasses || time.Now().Before(deadline); pass++ {
		p, err := runGridPass(ctx, cfg.seed)
		if err != nil {
			res.op(false, fmt.Sprintf("pass %d: %v", pass, err))
			continue
		}
		for range p.gaps {
			res.op(true, "")
		}
		setups = append(setups, p.setup.Seconds())
		walls = append(walls, p.wall.Seconds())
		gaps = append(gaps, p.gaps...)
		execs = append(execs, p.execs...)
		d := digest(p.text)
		if pass == 0 {
			first = d
			checkDigest(cfg, res, "render", d)
			res.inputs["seeds_unique"] = p.env.Full.Len()
			res.inputs["cells_per_pass"] = len(p.gaps)
			res.inputs["probes_per_pass"] = p.env.Scanner.Stats().PacketsSent.Load()
		} else {
			res.check(fmt.Sprintf("render.pass%d", pass), d == first, "output differs from the first pass")
		}
	}
	res.inputs["passes"] = len(walls)
	res.inputs["world"] = fmt.Sprintf("seed %d, %d ASes, collect scale %g, budget %d", worldSeed, gridASes, gridScale, gridBudget)
	if len(walls) == 0 {
		return fmt.Errorf("tga-grid: every pass failed")
	}
	res.samples["setup_s"], res.samples["pass_s"], res.samples["cell_gap_s"], res.samples["cell_exec_s"] = setups, walls, gaps, execs
	res.set("peak_rss_mb", peakRSSMB(), "MB")
	res.set("setup_s", median(setups), "s")
	res.set("wall_s", median(walls), "s")
	res.set("epoch_p50_s", quantile(gaps, 0.5), "s")
	res.set("epoch_p90_s", quantile(gaps, 0.9), "s")
	res.set("lookup_p50_ms", 1e3*quantile(execs, 0.5), "ms")
	res.set("lookup_p99_ms", 1e3*quantile(execs, 0.99), "ms")
	return nil
}

// setupLayers times world construction and seed collection on their own,
// with the configuration NewEnv uses, as the median of three.
func setupLayers(res *result, cfg experiment.EnvConfig) {
	var build, collect []float64
	unique := 0
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		w := world.New(world.Config{Seed: cfg.WorldSeed, NumASes: cfg.NumASes, LossRate: 0.01})
		t1 := time.Now()
		w.SetEpoch(world.CollectEpoch)
		srcs := seeds.CollectAll(w, seeds.CollectConfig{Seed: cfg.CollectSeed, Scale: cfg.CollectScale})
		t2 := time.Now()
		unique = seeds.CombineAll(srcs).Len()
		build = append(build, t1.Sub(t0).Seconds())
		collect = append(collect, t2.Sub(t1).Seconds())
	}
	res.set("world.build_s", median(build), "s")
	res.set("seeds.collect_s", median(collect), "s")
	res.set("seeds.unique", float64(unique), "count")
}

// tracedEnv builds an environment with every wrapper installed: the
// exchange timer innermost in the wire chain and the timed prober on
// Env.Prober before any dealiaser is built over it.
func tracedEnv(rec *recorder, cfg experiment.EnvConfig) *experiment.Env {
	cfg.Chain = append(cfg.Chain, exchangeTimer{rec})
	env := experiment.NewEnv(cfg)
	env.Prober = &timedProber{inner: env.Prober, rec: rec}
	return env
}

// resolveTreatment resolves a cell's seed treatment as Env.RunCell does.
// A dealiasing treatment's first resolution is dominated by the
// dealiaser, so its first Env.DealiasedSeeds call is timed as an alias
// span; dealiased tracks the modes already resolved.
func resolveTreatment(env *experiment.Env, rec *recorder, t grid.Treatment, dealiased map[string]bool) ([]ipaddr.Addr, error) {
	if mode, ok := strings.CutPrefix(string(t), "dealiased:"); ok && !dealiased[mode] {
		dealiased[mode] = true
		for _, m := range alias.Modes {
			if m.String() == mode {
				_, end := rec.enter("alias.split", mode)
				ds := env.DealiasedSeeds(m)
				end(env.Full.Len(), env.Full.Len()-ds.Len())
			}
		}
	}
	_, end := rec.enter("experiment.treatment", string(t))
	s, err := env.TreatmentSeeds(t)
	end(len(s), 0)
	return s, err
}

// loopSpans is a telemetry.Sink totalling the spans tga.RunContext's
// run loop emits itself, the cross-check for the wrappers' timings.
type loopSpans struct {
	mu    sync.Mutex
	total map[string]time.Duration
	count map[string]int
}

func (s *loopSpans) Emit(ev telemetry.Event) {
	if ev.Type != "span_end" {
		return
	}
	s.mu.Lock()
	s.total[ev.Name] += time.Duration(ev.DurationMS * float64(time.Millisecond))
	s.count[ev.Name]++
	s.mu.Unlock()
}

func (s *loopSpans) Close() error { return nil }

// replayed is one replayed cell's result.
type replayed struct {
	grid.CellResult
	err error
}

// replayGrid runs the plan's cells one at a time, each as Env.RunCell
// runs it (same treatment, run config and measurement), with every TGA
// stage wrapped: the generator, the model cache (a fresh one, so model
// builds are timed), the output dealiaser and, through env, the prober.
func replayGrid(ctx context.Context, env *experiment.Env, rec *recorder, plan []grid.PlannedCell) map[string]replayed {
	models := modelcache.New()
	dealiased := map[string]bool{}
	out := make(map[string]replayed, len(plan))
	for _, pc := range plan {
		c := pc.Cell
		cellID, endCell := rec.enter("grid.cell", c.ID())
		var r replayed
		var run *tga.RunResult
		seedList, err := resolveTreatment(env, rec, c.Treatment, dealiased)
		var g tga.Generator
		if err == nil && len(seedList) > 0 {
			g, err = all.New(c.Gen)
		}
		if g != nil && err == nil {
			run, err = tga.RunContext(ctx, wrapGen(g, rec, cellID), seedList, tga.RunConfig{
				Budget:       c.Budget,
				BatchSize:    c.BatchSize,
				Proto:        c.Proto,
				Prober:       env.Prober,
				Dealiaser:    &timedDealiaser{inner: env.OutputDealiaser(c.Proto), rec: rec, mode: "output"},
				ExcludeSeeds: true,
				Models:       &timedModels{inner: models, rec: rec, parent: cellID},
			})
		}
		r.err = err
		if run != nil && err == nil {
			exclude := 0
			if c.Proto == proto.ICMP {
				exclude = world.PathologicalASN
			}
			endMeasure := rec.leaf("metrics.measure", "", cellID)
			r.CellResult = grid.CellResult{Outcome: metrics.Measure(run.Hits, run.AliasedHits, env.World.ASDB(), exclude), Hits: run.Hits}
			endMeasure(len(run.Hits), 0)
			endCell(run.Generated, len(run.Hits))
		} else {
			endCell(0, 0)
		}
		out[c.ID()] = r
	}
	return out
}

func tracedGrid(cfg runConfig, res *result) error {
	ctx := context.Background()
	zeroLayers(res)
	ecfg := envConfig(cfg.seed, gridASes, gridScale, gridBudget)
	setupLayers(res, ecfg)

	// Untraced reference pass: the outputs, the per-cell hits and the
	// wall time the replay is compared with.
	ref, err := runGridPass(ctx, cfg.seed)
	if err != nil {
		return err
	}
	refCells, err := planResults(ctx, ref.env)
	if err != nil {
		return err
	}
	checkDigest(cfg, res, "render", digest(ref.text))

	// Traced replay with the run loop's own spans collected beside the
	// wrappers'.
	rec := newRecorder()
	sink := &loopSpans{total: map[string]time.Duration{}, count: map[string]int{}}
	tr := telemetry.NewTracer(nil, sink)
	ecfg.Telemetry = tr
	env := tracedEnv(rec, ecfg)
	specs := gridSpecs(env)
	plan := grid.Plan(specs...)
	planned := 0
	for _, s := range specs {
		planned += len(s.Cells)
	}
	start := time.Now()
	got := replayGrid(telemetry.NewContext(ctx, tr), env, rec, plan)
	for _, pc := range plan {
		id := pc.Cell.ID()
		ok := got[id].err == nil && hitsOf(got[id].CellResult) == hitsOf(refCells[id])
		res.op(ok, fmt.Sprintf("cell %s: traced replay differs from Env.Grid() (err %v)", id, got[id].err))
	}
	replayWall := time.Since(start)

	a := analyze(rec.snapshot())
	spanLayers(res, a)
	cells := a.get("grid.cell")
	res.set("experiment.render_s", ref.render.Seconds(), "s")
	res.set("grid.cells_planned", float64(planned), "count")
	res.set("grid.cells_unique", float64(len(plan)), "count")
	res.set("grid.cell_p50_s", quantile(cells.durs, 0.5), "s")
	res.set("grid.cell_p75_s", quantile(cells.durs, 0.75), "s")
	res.set("grid.busy_ratio", ratio(sum(cells.durs), ref.wall.Seconds()*float64(ref.env.Workers())), "ratio")
	res.set("trace.overhead_ratio", ratio(replayWall.Seconds(), ref.wall.Seconds()), "ratio")
	crossCheck(res, a, sink, tr.Registry())
	res.inputs["cells_planned"] = planned
	res.inputs["cells_unique"] = len(plan)
	res.inputs["workers"] = ref.env.Workers()
	return rec.writeJSONL(tracePath(cfg))
}

// crossCheck holds the wrappers' totals against the run loop's own
// trace: generation and feedback time, the number of its scans, and the
// packets the scanner counted against those the exchange timer saw.
func crossCheck(res *result, a *analysis, sink *loopSpans, reg *telemetry.Registry) {
	for _, st := range []string{"generate", "feedback"} {
		w, d := a.get("tga."+st).total, sink.total[st]
		// The run loop's span also covers its dedup of the proposed batch,
		// so it may exceed the wrapper's, never the reverse.
		ok := w <= d+time.Millisecond && float64(w) >= 0.5*float64(d)
		res.check("trace."+st, ok, fmt.Sprintf("wrapper %v, run-loop spans %v", w, d))
		res.checks["trace."+st+".ratio"] = fmt.Sprintf("%.3f", ratio(float64(w), float64(d)))
	}
	cellIDs := map[int64]bool{}
	for _, s := range a.spans {
		if s.Name == "grid.cell" {
			cellIDs[s.ID] = true
		}
	}
	scans := 0
	for _, s := range a.spans {
		if s.Name == "scanner.scan" && cellIDs[s.Parent] {
			scans++
		}
	}
	res.check("trace.scans", scans == sink.count["scan"], fmt.Sprintf("wrapper saw %d run-loop scans, run-loop spans %d", scans, sink.count["scan"]))
	var sent int64
	for name, v := range reg.Snapshot().Counters {
		if strings.HasPrefix(name, "scanner.probes_sent.") {
			sent += v
		}
	}
	pk := a.get("world.exchange").n
	res.check("trace.packets", pk == sent, fmt.Sprintf("exchange timer %d packets, scanner.probes_sent %d", pk, sent))
}

func tracePath(cfg runConfig) string {
	return fmt.Sprintf("%s/traces/%s-seed%d.jsonl", cfg.out, cfg.workload, cfg.seed)
}
