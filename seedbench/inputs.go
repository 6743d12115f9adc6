package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"seedscan/internal/experiment"
)

// worldSeed fixes the simulated Internet for every run. The world is the
// benchmark's fixture, not an input: across world seeds the TGA model
// cost varies by half (some worlds grow deeper pattern trees), which would
// drown any change in noise. The workload seed instead draws everything a
// study samples from that Internet: the seed-collection sample, the scan
// secret (probe cookies, scan order, alias-test addresses) and the
// lookup keys.
const worldSeed = 42

// defaultSeed is the seed whose output digests are recorded below.
const defaultSeed = 1

// recordedDigests are the output digests of each workload at defaultSeed
// and the sizes in this package: the rendered Figure 3 + Table 4
// (tga-grid), Table 3 + Figures 1-2 with the dealiased counts
// (seed-survey), and the first fixedEpochs epoch reports without
// Duration and Generation (hitlist-serve).
var recordedDigests = map[string]string{
	"tga-grid":      "7a4d83c6654885d5",
	"seed-survey":   "247524297f9ed293",
	"hitlist-serve": "a8c00075541fb541",
}

// splitmix is a 64-bit mixer deriving independent inputs from one seed.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// envConfig derives an environment from the workload seed.
func envConfig(seed uint64, ases int, scale float64, budget int) experiment.EnvConfig {
	return experiment.EnvConfig{
		WorldSeed:    worldSeed,
		NumASes:      ases,
		CollectScale: scale,
		Budget:       budget,
		CollectSeed:  splitmix(seed) | 1,
		ScanSecret:   splitmix(seed^0x5ca9) | 1,
	}
}

// inputSizes names a workload's inputs: the fixed world and the sizes
// this package runs it at.
func inputSizes(workload string) string {
	switch workload {
	case "tga-grid":
		return fmt.Sprintf("world%d-ases%d-scale%g-budget%d", worldSeed, gridASes, gridScale, gridBudget)
	case "seed-survey":
		return fmt.Sprintf("world%d-ases%d-scale%g", worldSeed, surveyASes, surveyScale)
	default:
		return fmt.Sprintf("world%d-ases%d-scale%g-epochs%d", worldSeed, hitlistASes, hitlistScale, fixedEpochs)
	}
}

// checkDigest checks an output digest: against the recorded digest for
// the default seed, otherwise against the digest the first run of this
// workload, seed and input sizes left in the output directory. The stored
// digest does not depend on the sources, so once one commit has run a
// seed, every later run of that seed in the same output directory, of
// this commit or another, traced or not, must produce the same output.
func checkDigest(cfg runConfig, res *result, name, got string) {
	res.checks[name+".digest"] = got
	if want := recordedDigests[cfg.workload]; cfg.seed == defaultSeed && want != "" {
		res.check(name+".recorded", got == want, fmt.Sprintf("digest %s, recorded %s", got, want))
		return
	}
	path := filepath.Join(cfg.out, "digests", fmt.Sprintf("%s-%s-seed%d-%s", cfg.workload, name, cfg.seed, inputSizes(cfg.workload)))
	prev, err := os.ReadFile(path)
	if err != nil {
		tmp := path + ".tmp"
		if err := os.WriteFile(tmp, []byte(got), 0o644); err == nil {
			os.Rename(tmp, path)
		}
		return
	}
	want := strings.TrimSpace(string(prev))
	res.check(name+".earlier_run", got == want, fmt.Sprintf("digest %s, earlier run %s", got, want))
}
