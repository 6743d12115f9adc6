package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// provenance identifies the machine, toolchain and code a result came
// from. The checkout a benchmark runs in need not be a git repository,
// so the commit falls back to a digest of the Go sources it was built
// from. steal_share is the share of CPU time the hypervisor took from
// this machine during the run: on a shared virtual machine it is the
// usual cause of a slow outlier.
func provenance(cfg runConfig, stealStart [2]uint64) map[string]any {
	stealEnd := cpuSteal()
	return map[string]any{
		"steal_share":   ratio(float64(stealEnd[0]-stealStart[0]), float64(stealEnd[1]-stealStart[1])),
		"workload":      cfg.workload,
		"seed":          cfg.seed,
		"seconds":       cfg.seconds.Seconds(),
		"traced":        cfg.trace,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"goos_goarch":   runtime.GOOS + "/" + runtime.GOARCH,
		"commit":        commit(cfg.root),
		"source_digest": cfg.source,
	}
}

// cpuSteal returns the machine's steal and total CPU ticks from
// /proc/stat (zeros where it is unavailable).
func cpuSteal() [2]uint64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return [2]uint64{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return [2]uint64{}
	}
	var out [2]uint64
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		out[1] += v
		if i == 7 {
			out[0] = v
		}
	}
	return out
}

// commit is the checkout's git HEAD, when the checkout is a git
// repository of its own.
func commit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes go.mod and every .go file under root, skipping
// hidden directories (build output lives there).
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		io.WriteString(h, rel)
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
