// Command seedbench is seedscan's end-to-end benchmark. It runs one
// workload for a fixed time, checks the program's outputs, and prints one
// JSON result as its last line: the end-to-end metrics on an untraced run
// (-trace 0), or the per-layer metrics from a traced run (-trace 1). See
// README.md for the workloads and metrics.
//
// Usage (from the repository root):
//
//	bash seedbench/run.sh --workload tga-grid --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the untraced metrics every workload reports, with units.
var endToEnd = [][2]string{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"epoch_p50_s", "s"},
	{"epoch_p90_s", "s"},
	{"lookup_p50_ms", "ms"},
	{"lookup_p99_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// minPasses is the fewest study passes a tga-grid or seed-survey run
// makes, however short -seconds is, so its medians have three samples.
const minPasses = 3

// runConfig is one invocation.
type runConfig struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	root     string // repository checkout the benchmark was built from
	source   string // digest of the checkout's Go sources
	out      string // scratch directory for stores, traces and results
}

// result accumulates a run's operations, checks and metrics.
type result struct {
	attempted, failed int
	failures          []string
	metrics           map[string]metric
	inputs            map[string]any
	checks            map[string]string
	samples           map[string][]float64 // raw samples behind the timing metrics
}

func newResult() *result {
	return &result{metrics: map[string]metric{}, inputs: map[string]any{}, checks: map[string]string{},
		samples: map[string][]float64{}}
}

// op counts one operation (a cell, an epoch, a lookup).
func (r *result) op(ok bool, what string) {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, what)
		}
	}
}

// check counts one output check and records its outcome.
func (r *result) check(name string, ok bool, detail string) {
	r.op(ok, name+": "+detail)
	if ok {
		r.checks[name] = "ok"
	} else {
		r.checks[name] = "FAILED: " + detail
	}
}

func (r *result) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

// workloads maps each workload name to its untraced and traced runs.
var workloads = map[string]struct {
	run    func(runConfig, *result) error
	traced func(runConfig, *result) error
}{
	"tga-grid":      {runGrid, tracedGrid},
	"seed-survey":   {runSurvey, tracedSurvey},
	"hitlist-serve": {runHitlist, tracedHitlist},
}

func main() {
	var cfg runConfig
	var trace int
	var secs int
	flag.StringVar(&cfg.workload, "workload", "", "workload: tga-grid, seed-survey or hitlist-serve")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed; every generated input derives from it")
	flag.IntVar(&secs, "seconds", 20, "how long one run measures")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.StringVar(&cfg.root, "root", ".", "repository checkout (for provenance)")
	flag.StringVar(&cfg.out, "out", ".bench_build/seedbench-out", "directory for stores, traces and results")
	flag.Parse()
	cfg.seconds = time.Duration(secs) * time.Second
	cfg.trace = trace == 1
	w, ok := workloads[cfg.workload]
	if !ok || secs <= 0 || (trace != 0 && trace != 1) || cfg.seed == 0 {
		fmt.Fprintln(os.Stderr, "seedbench: need -workload tga-grid|seed-survey|hitlist-serve, -seconds > 0, -trace 0|1, -seed > 0")
		os.Exit(2)
	}
	cfg.source = sourceDigest(cfg.root)
	for _, d := range []string{"traces", "results", "digests"} {
		if err := os.MkdirAll(filepath.Join(cfg.out, d), 0o755); err != nil {
			fail(err)
		}
	}

	res := newResult()
	steal := cpuSteal()
	run := w.run
	if cfg.trace {
		run = w.traced
	}
	if err := run(cfg, res); err != nil {
		fail(err)
	}
	res.set("error_rate", ratio(float64(res.failed), float64(res.attempted)), "ratio")
	report(cfg, res, steal)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "seedbench:", err)
	os.Exit(1)
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// report prints every metric by name and unit, writes the full result
// with provenance under -out, and ends with the one-line JSON result.
func report(cfg runConfig, res *result, steal [2]uint64) {
	names := make([]string, 0, len(res.metrics))
	for n := range res.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.metrics[n]
		fmt.Printf("%-36s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, f := range res.failures {
		fmt.Println("FAILED", f)
	}

	want := endToEnd
	if cfg.trace {
		want = perLayerMetrics()
	}
	out := make(map[string]metric, len(want))
	for _, w := range want {
		m, ok := res.metrics[w[0]]
		if !ok {
			fail(fmt.Errorf("metric %s was not measured", w[0]))
		}
		out[w[0]] = m
	}
	prov := provenance(cfg, steal)
	full := map[string]any{
		"provenance": prov, "inputs": res.inputs, "checks": res.checks,
		"attempted": res.attempted, "failed": res.failed, "failures": res.failures,
		"metrics": res.metrics, "samples": res.samples,
	}
	path := filepath.Join(cfg.out, "results", fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, b2i(cfg.trace)))
	if data, err := json.MarshalIndent(full, "", "  "); err == nil {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			fail(err)
		}
	}
	pj, _ := json.Marshal(prov)
	fmt.Printf("provenance %s\nresult file %s\n", pj, path)

	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, out})
	fmt.Println(string(line))
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
