package main

import (
	"seedscan/internal/tga/all"
)

// perLayer lists the traced run's metrics, with units. Every workload
// reports all of them; a layer the workload does not reach reads 0.
var perLayer = [][2]string{
	{"world.build_s", "s"},
	{"world.exchange_s", "s"},
	{"world.exchange_calls", "count"},
	{"world.packets", "count"},
	{"world.replies", "count"},
	{"seeds.collect_s", "s"},
	{"seeds.unique", "count"},
	{"scanner.scan_s", "s"},
	{"scanner.self_s", "s"},
	{"scanner.calls", "count"},
	{"scanner.targets", "count"},
	{"scanner.active_ratio", "ratio"},
	{"scanner.retry_ratio", "ratio"},
	{"scanner.call_p50_ms", "ms"},
	{"scanner.call_p99_ms", "ms"},
	{"alias.split_s", "s"},
	{"alias.self_s", "s"},
	{"alias.addrs", "count"},
	{"alias.aliased_ratio", "ratio"},
	{"experiment.treatment_s", "s"},
	{"experiment.summary_s", "s"},
	{"experiment.overlap_s", "s"},
	{"experiment.render_s", "s"},
	{"metrics.measure_s", "s"},
	{"tga.model_build_s", "s"},
	{"tga.model_hit_ratio", "ratio"},
	{"tga.init_s", "s"},
	{"tga.generate_s", "s"},
	{"tga.feedback_s", "s"},
	{"tga.proposed", "count"},
	{"tga.fresh_ratio", "ratio"},
	{"tga.hit_ratio", "ratio"},
	{"grid.cells_planned", "count"},
	{"grid.cells_unique", "count"},
	{"grid.cell_p50_s", "s"},
	{"grid.cell_p75_s", "s"},
	{"grid.busy_ratio", "ratio"},
	{"longitudinal.epoch_self_s", "s"},
	{"longitudinal.probed", "count"},
	{"longitudinal.saved_ratio", "ratio"},
	{"hitlistdb.generations", "count"},
	{"hitlistdb.snapshot_bytes", "bytes"},
	{"serve.requests", "count"},
	{"serve.handler_p50_us", "us"},
	{"serve.handler_p99_us", "us"},
	{"serve.http_p50_us", "us"},
	{"loadgen.sent", "count"},
	{"loadgen.late_p99_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
	{"error_rate", "ratio"},
}

// genStages are the per-generator TGA metrics, reported for each of the
// paper's eight generators as tga.<Gen>.<stage>_s.
var genStages = []string{"model_build", "generate", "feedback"}

// perLayerMetrics is every per-layer metric with its unit: perLayer,
// then the per-generator metrics.
func perLayerMetrics() [][2]string {
	out := append([][2]string(nil), perLayer...)
	for _, g := range all.Names {
		for _, st := range genStages {
			out = append(out, [2]string{"tga." + g + "." + st + "_s", "s"})
		}
	}
	return out
}

// zeroLayers reports every per-layer metric as 0 before a traced
// workload fills in the layers it reaches.
func zeroLayers(res *result) {
	for _, m := range perLayerMetrics() {
		res.set(m[0], 0, m[1])
	}
}

// spanLayers derives the layer metrics that come straight from the
// wrappers' spans.
func spanLayers(res *result, a *analysis) {
	ex := a.get("world.exchange")
	res.set("world.exchange_s", a.union("world.exchange").Seconds(), "s")
	res.set("world.exchange_calls", float64(ex.count), "count")
	res.set("world.packets", float64(ex.n), "count")
	res.set("world.replies", float64(ex.m), "count")

	sc := a.get("scanner.scan")
	res.set("scanner.scan_s", sc.total.Seconds(), "s")
	res.set("scanner.self_s", sc.self.Seconds(), "s")
	res.set("scanner.calls", float64(sc.count), "count")
	res.set("scanner.targets", float64(sc.n), "count")
	res.set("scanner.active_ratio", ratio(float64(sc.m), float64(sc.n)), "ratio")
	res.set("scanner.retry_ratio", ratio(float64(ex.n-sc.n), float64(sc.n)), "ratio")
	res.set("scanner.call_p50_ms", 1e3*quantile(sc.durs, 0.5), "ms")
	res.set("scanner.call_p99_ms", 1e3*quantile(sc.durs, 0.99), "ms")

	al := a.get("alias.split")
	res.set("alias.split_s", al.total.Seconds(), "s")
	res.set("alias.self_s", al.self.Seconds(), "s")
	res.set("alias.addrs", float64(al.n), "count")
	res.set("alias.aliased_ratio", ratio(float64(al.m), float64(al.n)), "ratio")

	res.set("experiment.treatment_s", a.get("experiment.treatment").self.Seconds(), "s")
	res.set("experiment.summary_s", a.get("experiment.summary").self.Seconds(), "s")
	res.set("experiment.overlap_s", a.get("experiment.overlap").self.Seconds(), "s")
	res.set("experiment.render_s", a.get("experiment.render").self.Seconds(), "s")
	res.set("metrics.measure_s", a.get("metrics.measure").self.Seconds(), "s")

	gets, builds := a.get("tga.model_get"), a.get("tga.model_build")
	gen, cell := a.get("tga.generate"), a.get("grid.cell")
	res.set("tga.model_build_s", builds.total.Seconds(), "s")
	if gets.count > 0 {
		res.set("tga.model_hit_ratio", 1-float64(builds.count)/float64(gets.count), "ratio")
	}
	res.set("tga.init_s", a.get("tga.init").total.Seconds(), "s")
	res.set("tga.generate_s", gen.total.Seconds(), "s")
	res.set("tga.feedback_s", a.get("tga.feedback").total.Seconds(), "s")
	res.set("tga.proposed", float64(gen.n), "count")
	res.set("tga.fresh_ratio", ratio(float64(cell.n), float64(gen.n)), "ratio")
	res.set("tga.hit_ratio", ratio(float64(cell.m), float64(cell.n)), "ratio")
	for _, g := range all.Names {
		for _, st := range genStages {
			res.set("tga."+g+"."+st+"_s", a.tagged("tga."+st, g).total.Seconds(), "s")
		}
	}
}
