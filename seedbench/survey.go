package main

import (
	"fmt"
	"strings"
	"time"

	"seedscan/internal/alias"
	"seedscan/internal/experiment"
)

// seed-survey sizes: Table 3 and Figures 1-2 over about 155k unique
// seeds, so one pass takes about two seconds on 2 CPUs.
const (
	surveyASes  = 300
	surveyScale = 1.0
)

// surveyStage is one timed step of a survey pass: run computes the
// step's result and returns its renderer, plus the addresses a
// dealiasing step split and how many it found aliased.
type surveyStage struct {
	name, tag string
	run       func(env *experiment.Env) (render func() string, addrs, aliased int)
}

// surveyStages are the survey's steps in order: every seed-dealiasing
// treatment of Table 2, Table 3, and both overlap figures.
func surveyStages() []surveyStage {
	var st []surveyStage
	for _, m := range alias.Modes {
		m := m
		st = append(st, surveyStage{"alias.split", m.String(), func(env *experiment.Env) (func() string, int, int) {
			n := env.DealiasedSeeds(m).Len()
			return func() string { return fmt.Sprintf("dealiased %s: %d\n", m, n) }, env.Full.Len(), env.Full.Len() - n
		}})
	}
	overlaps := func(responsive bool, titles ...string) func(env *experiment.Env) (func() string, int, int) {
		return func(env *experiment.Env) (func() string, int, int) {
			ips, ases := env.SourceOverlaps(responsive)
			return func() string {
				return experiment.RenderOverlap(titles[0], ips) + experiment.RenderOverlap(titles[1], ases)
			}, 0, 0
		}
	}
	return append(st,
		surveyStage{"experiment.summary", "table3", func(env *experiment.Env) (func() string, int, int) {
			s := env.DatasetSummary()
			return func() string { return s.Render() + s.RenderWithPaper() }, 0, 0
		}},
		surveyStage{"experiment.overlap", "fig1", overlaps(false,
			"Figure 1a: seed source overlap by IP", "Figure 1b: seed source overlap by AS")},
		surveyStage{"experiment.overlap", "fig2", overlaps(true,
			"Figure 2a: responsive overlap by IP", "Figure 2b: responsive overlap by AS")})
}

// surveyPass is one survey pass over env, returning its output and the
// time, rendering included, it spent in the dealiasing stages and in the
// set-operation stages (Table 3 and the overlap figures). With rec set,
// each stage's computation and its rendering are recorded as separate
// spans.
func surveyPass(env *experiment.Env, rec *recorder) (text string, dealias, setops time.Duration) {
	var out strings.Builder
	for _, s := range surveyStages() {
		t0 := time.Now()
		if rec == nil {
			render, _, _ := s.run(env)
			out.WriteString(render())
		} else {
			_, end := rec.enter(s.name, s.tag)
			render, n, m := s.run(env)
			end(n, m)
			_, end = rec.enter("experiment.render", s.tag)
			out.WriteString(render())
			end(0, 0)
		}
		if s.name == "alias.split" {
			dealias += time.Since(t0)
		} else {
			setops += time.Since(t0)
		}
	}
	return out.String(), dealias, setops
}

func runSurvey(cfg runConfig, res *result) error {
	deadline := time.Now().Add(cfg.seconds)
	var setups, walls, dealias, setops []float64
	first := ""
	for pass := 0; pass < minPasses || time.Now().Before(deadline); pass++ {
		t0 := time.Now()
		env := experiment.NewEnv(envConfig(cfg.seed, surveyASes, surveyScale, 0))
		t1 := time.Now()
		text, dl, so := surveyPass(env, nil)
		walls = append(walls, time.Since(t1).Seconds())
		setups = append(setups, t1.Sub(t0).Seconds())
		dealias, setops = append(dealias, dl.Seconds()), append(setops, so.Seconds())
		for range surveyStages() {
			res.op(true, "")
		}
		d := digest(text)
		if pass == 0 {
			first = d
			checkDigest(cfg, res, "render", d)
			res.inputs["seeds_unique"] = env.Full.Len()
			res.inputs["probes_per_pass"] = env.Scanner.Stats().PacketsSent.Load()
		} else {
			res.check(fmt.Sprintf("render.pass%d", pass), d == first, "output differs from the first pass")
		}
	}
	res.inputs["passes"] = len(walls)
	res.inputs["world"] = fmt.Sprintf("seed %d, %d ASes, collect scale %g", worldSeed, surveyASes, surveyScale)
	res.samples["setup_s"], res.samples["pass_s"], res.samples["dealias_s"], res.samples["setops_s"] = setups, walls, dealias, setops
	res.set("peak_rss_mb", peakRSSMB(), "MB")
	res.set("setup_s", median(setups), "s")
	res.set("wall_s", median(walls), "s")
	res.set("epoch_p50_s", quantile(dealias, 0.5), "s")
	res.set("epoch_p90_s", quantile(dealias, 0.9), "s")
	res.set("lookup_p50_ms", 1e3*quantile(setops, 0.5), "ms")
	res.set("lookup_p99_ms", 1e3*quantile(setops, 0.99), "ms")
	return nil
}

func tracedSurvey(cfg runConfig, res *result) error {
	zeroLayers(res)
	ecfg := envConfig(cfg.seed, surveyASes, surveyScale, 0)
	setupLayers(res, ecfg)

	env := experiment.NewEnv(ecfg)
	t0 := time.Now()
	refText, _, _ := surveyPass(env, nil)
	refWall := time.Since(t0)
	checkDigest(cfg, res, "render", digest(refText))

	rec := newRecorder()
	env = tracedEnv(rec, ecfg)
	t1 := time.Now()
	text, _, _ := surveyPass(env, rec)
	wall := time.Since(t1)
	res.check("render.traced", digest(text) == digest(refText), "traced pass output differs from the untraced pass")

	a := analyze(rec.snapshot())
	spanLayers(res, a)
	res.set("trace.overhead_ratio", ratio(wall.Seconds(), refWall.Seconds()), "ratio")
	res.inputs["seeds_unique"] = env.Full.Len()
	return rec.writeJSONL(tracePath(cfg))
}
