// Cluster scaling benchmarks and the BENCH_cluster.json baseline writer.
//
// The paper's scans are bottlenecked by per-host ethical rate caps (10k pps
// per vantage point, two months of wall clock), not CPU — so the win from
// clustering is aggregate egress, one rate cap per worker. The benches model
// that: every worker scans through its own real-time-paced link (a hard
// per-worker packets/sec cap enforced with wall-clock sleeps), so the
// aggregate rate scales with worker count the same way adding scan hosts
// does, even on a single-core runner.
//
// `make bench-cluster` regenerates BENCH_cluster.json from these
// measurements; see README.md for the format.
package seedscan

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"seedscan/internal/cluster"
	"seedscan/internal/ipaddr"
	"seedscan/internal/probe"
	"seedscan/internal/proto"
	"seedscan/internal/scanner"
)

// clusterBenchTargets × 3 attempts is the per-run packet count.
const clusterBenchTargets = 8192

// pacedLinkPPS is each worker's egress cap — the per-vantage-point rate
// limit the cluster multiplies. (Scaled down from real rates so the full
// 1→8 curve runs in about a second.)
const pacedLinkPPS = 100_000

// pacedLink is a silent link with a hard real-time rate cap shared by all
// goroutines of one worker's scanner: batches reserve their slot on a
// virtual send clock under the mutex, then sleep until that slot arrives.
type pacedLink struct {
	gap  time.Duration
	mu   sync.Mutex
	next time.Time
}

func newPacedLink(pps int) *pacedLink {
	return &pacedLink{gap: time.Second / time.Duration(pps)}
}

func (l *pacedLink) ExchangeBatchInto(pkts [][]byte, rb *probe.ReplyBuf) {
	l.sleepFor(len(pkts))
	rb.Reset(len(pkts))
}

func (l *pacedLink) sleepFor(pkts int) {
	l.mu.Lock()
	now := time.Now()
	if l.next.Before(now) {
		l.next = now
	}
	l.next = l.next.Add(time.Duration(pkts) * l.gap)
	wake := l.next
	l.mu.Unlock()
	time.Sleep(time.Until(wake))
}

// pacedPool builds an n-worker pool where every worker owns a separate
// rate-capped link — the in-process analogue of n scan hosts.
func pacedPool(n int) *cluster.Pool {
	cfg := cluster.Config{Secret: 7, ShardSize: 1024}
	workers := make([]cluster.Worker, n)
	for i := range workers {
		s := scanner.New(newPacedLink(pacedLinkPPS),
			scanner.WithSecret(7))
		workers[i] = cluster.NewLocalWorker(fmt.Sprintf("w%d", i), s)
	}
	return cluster.NewPool(cfg, workers...)
}

func clusterBenchTargetList() []ipaddr.Addr {
	targets := make([]ipaddr.Addr, clusterBenchTargets)
	base := ipaddr.MustParse("2001:db8:bead::")
	for i := range targets {
		targets[i] = base.AddLo(uint64(i))
	}
	return targets
}

// runPaced executes one coordinated scan and returns aggregate wall-clock
// throughput in packets/sec.
func runPaced(tb testing.TB, n int, targets []ipaddr.Addr) float64 {
	pool := pacedPool(n)
	start := time.Now()
	res, err := pool.Run(context.Background(), targets, proto.ICMP)
	if err != nil {
		tb.Fatal(err)
	}
	wall := time.Since(start).Seconds()
	sent := res.Stats.PacketsSent.Load()
	if want := int64(3 * len(targets)); sent != want {
		tb.Fatalf("%d workers sent %d packets, want %d", n, sent, want)
	}
	return float64(sent) / wall
}

// BenchmarkClusterScaling reports aggregate throughput for 1→8 workers,
// each behind its own rate-capped link.
func BenchmarkClusterScaling(b *testing.B) {
	targets := clusterBenchTargetList()
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", n), func(b *testing.B) {
			var pps float64
			for i := 0; i < b.N; i++ {
				pps = runPaced(b, n, targets)
			}
			b.ReportMetric(pps, "agg-pkts/sec")
		})
	}
}

// --- BENCH_cluster.json baseline writer ---

var clusterBenchOut = flag.String("cluster-bench-out", "",
	"write the cluster scaling baseline JSON to this path (see make bench-cluster)")

// clusterBenchEntry is one row of BENCH_cluster.json.
type clusterBenchEntry struct {
	Workers     int     `json:"workers"`
	WallSeconds float64 `json:"wall_seconds"`
	AggPktsSec  float64 `json:"agg_pkts_per_sec"`
	Speedup     float64 `json:"speedup_vs_1"`
}

// clusterBenchBaseline is the BENCH_cluster.json schema; speedup at 4
// workers is the acceptance metric.
type clusterBenchBaseline struct {
	Schema        string              `json:"schema"`
	GoVersion     string              `json:"go_version"`
	CPUs          int                 `json:"cpus"`
	Targets       int                 `json:"targets"`
	PacketsPerRun int                 `json:"packets_per_run"`
	WorkerLinkPPS int                 `json:"worker_link_pps"`
	Results       []clusterBenchEntry `json:"results"`
	SpeedupAt4    float64             `json:"speedup_at_4_workers"`
}

// TestWriteClusterBenchBaseline regenerates BENCH_cluster.json when run
// with -cluster-bench-out (wired to `make bench-cluster`); otherwise it is
// skipped. It fails if 4 workers fall below 2x one worker's aggregate
// throughput.
func TestWriteClusterBenchBaseline(t *testing.T) {
	if *clusterBenchOut == "" {
		t.Skip("pass -cluster-bench-out to regenerate BENCH_cluster.json")
	}
	targets := clusterBenchTargetList()
	out := clusterBenchBaseline{
		Schema:        "seedscan-bench-cluster/v1",
		GoVersion:     runtime.Version(),
		CPUs:          runtime.NumCPU(),
		Targets:       len(targets),
		PacketsPerRun: 3 * len(targets),
		WorkerLinkPPS: pacedLinkPPS,
	}
	var base float64
	for _, n := range []int{1, 2, 4, 8} {
		pps := runPaced(t, n, targets)
		if n == 1 {
			base = pps
		}
		out.Results = append(out.Results, clusterBenchEntry{
			Workers:     n,
			WallSeconds: float64(out.PacketsPerRun) / pps,
			AggPktsSec:  pps,
			Speedup:     pps / base,
		})
	}
	for _, e := range out.Results {
		if e.Workers == 4 {
			out.SpeedupAt4 = e.Speedup
		}
	}

	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*clusterBenchOut, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("wrote %s: 1 worker %.0f pkts/sec, 4 workers %.2fx, 8 workers %.2fx\n",
		*clusterBenchOut, base, out.SpeedupAt4, out.Results[len(out.Results)-1].Speedup)
	if out.SpeedupAt4 < 2 {
		t.Errorf("4-worker speedup %.2fx below the 2x acceptance floor", out.SpeedupAt4)
	}
}
