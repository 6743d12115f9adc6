// World reply-path benchmarks and the BENCH_world.json baseline writer.
//
// The legacy rows re-create the pre-refactor world shape — one boxed
// Trie.Lookup over every region per packet, parse-before-route with a
// fresh checksum scratch copy, per-reply allocations, and the allocating
// [][][]byte batch copied into the arena afterwards — so the speedup of
// the flat LPM spine plus the arena reply path stays measurable (and
// regenerable) after the old code is gone. The scaling grid drives lazily-materialized worlds of growing
// SizeScale through the multi-worker cluster path.
//
// `make bench-world` regenerates BENCH_world.json from these measurements;
// see README.md for the format.
package seedscan

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"seedscan/internal/cluster"
	"seedscan/internal/ipaddr"
	"seedscan/internal/probe"
	"seedscan/internal/proto"
	"seedscan/internal/scanner"
	"seedscan/internal/wire"
	"seedscan/internal/world"
)

// benchWorld builds the small reference world every reply-path row scans.
func benchWorld() *world.World {
	return world.New(world.Config{Seed: 42, NumASes: 60, LossRate: 0})
}

// routedTargets samples in-world destinations: half existing hosts, half
// in-template noise, so the reply path exercises hits, unreachables, and
// silence in one run.
func routedTargets(w *world.World) []ipaddr.Addr {
	s := w.NewSampler(7)
	targets := append(s.Hosts(dispatchTargets/2), s.TemplateNoise(dispatchTargets/2)...)
	return ipaddr.Dedup(targets)
}

// legacyWorldLink replays the pre-refactor world reply path around the
// current responder: a boxed any-valued Trie routes every packet across
// all regions of the world, parsing pays a fresh checksum scratch copy,
// and each reply set comes back through freshly allocated slices — one
// [][]byte per packet inside an allocated [][][]byte batch, copied into
// the caller's arena afterwards.
type legacyWorldLink struct {
	w    *world.World
	trie *ipaddr.Trie
}

func newLegacyWorldLink(w *world.World) *legacyWorldLink {
	t := ipaddr.NewTrie()
	for _, r := range w.Regions() {
		t.Insert(r.Prefix, r)
	}
	return &legacyWorldLink{w: w, trie: t}
}

// exchange answers one packet through a fresh single-packet reply buffer.
// one is the caller's reusable one-element batch.
func (l *legacyWorldLink) exchange(one [][]byte, pkt []byte) [][]byte {
	if len(pkt) < probe.IPv6HeaderLen {
		return nil
	}
	// Pre-refactor checksum verification copied the transport segment to
	// zero its checksum field.
	scratch := append([]byte(nil), pkt[probe.IPv6HeaderLen:]...)
	_ = scratch
	// Pre-refactor routing: one global bit-at-a-time trie walk per packet,
	// returning the region through an interface box.
	dst := ipaddr.AddrFrom16([16]byte(pkt[24:40]))
	if v, ok := l.trie.Lookup(dst); ok {
		_ = v.(*world.Region)
	}
	one[0] = pkt
	rb := new(probe.ReplyBuf)
	l.w.HandleBatch(one, rb)
	if r := rb.Reply(0); r != nil {
		return [][]byte{r}
	}
	return nil
}

// ExchangeBatchInto keeps the old allocating batch shape — a fresh
// [][][]byte of per-packet reply sets — and then copies the first reply
// per packet into rb, so the scanner's batched dispatch stays identical
// across the legacy and current rows and the measured delta is the world
// reply path alone.
func (l *legacyWorldLink) ExchangeBatchInto(pkts [][]byte, rb *probe.ReplyBuf) {
	one := make([][]byte, 1)
	replies := make([][][]byte, len(pkts))
	for i, pkt := range pkts {
		replies[i] = l.exchange(one, pkt)
	}
	rb.Reset(len(pkts))
	for i, rs := range replies {
		if len(rs) > 0 {
			rb.PutRaw(i, rs[0])
		}
	}
}

// BenchmarkWorldReplyPath measures the world's packet-answering throughput
// over unrouted floods (the brute-force scan shape) and routed in-world
// targets, current versus the legacy emulation.
func BenchmarkWorldReplyPath(b *testing.B) {
	w := benchWorld()
	report := func(b *testing.B, pktsPerOp int) {
		b.ReportMetric(float64(pktsPerOp)*float64(b.N)/b.Elapsed().Seconds(), "pkts/sec")
	}
	run := func(name string, link wire.Link, targets []ipaddr.Addr) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			s := scanner.New(link, scanner.WithSecret(7))
			for i := 0; i < b.N; i++ {
				s.Scan(targets, proto.ICMP)
			}
			report(b, 3*len(targets))
		})
	}
	run("unrouted-legacy", newLegacyWorldLink(w), silentTargets())
	run("unrouted-batched", w.Link(), silentTargets())
	run("routed-legacy", newLegacyWorldLink(w), routedTargets(w))
	run("routed-batched", w.Link(), routedTargets(w))
}

// --- BENCH_world.json baseline writer ---

var worldBenchOut = flag.String("world-bench-out", "",
	"write the world reply-path baseline JSON to this path (see make bench-world)")

// scanBaselinePktsPerSec is the committed world-batched row of
// BENCH_scanner.json before this refactor: the same scanner flood answered
// by the per-packet trie-routed world.
const scanBaselinePktsPerSec = 5492181.0

// worldScalingEntry is one cell of the world-size × workers grid.
type worldScalingEntry struct {
	SizeScale     float64 `json:"size_scale"`
	Workers       int     `json:"workers"`
	ExpectedHosts float64 `json:"expected_hosts"`
	BuildSeconds  float64 `json:"build_seconds"`
	PktsPerSec    float64 `json:"pkts_per_sec"`
}

// worldBenchBaseline is the BENCH_world.json schema. The speedup field is
// the acceptance metric: the arena-batched reply path versus the legacy
// per-packet shape on the same flood.
type worldBenchBaseline struct {
	Schema                 string              `json:"schema"`
	GoVersion              string              `json:"go_version"`
	CPUs                   int                 `json:"cpus"`
	TargetsPerOp           int                 `json:"targets_per_op"`
	PacketsPerOp           int                 `json:"packets_per_op"`
	Results                []benchEntry        `json:"results"`
	Scaling                []worldScalingEntry `json:"scaling"`
	SpeedupBatchedLegacy   float64             `json:"speedup_batched_vs_legacy"`
	SpeedupVsScanBaseline  float64             `json:"speedup_vs_committed_scanner_baseline"`
	ScanBaselinePktsPerSec float64             `json:"committed_scanner_baseline_pkts_per_sec"`
}

// TestWriteWorldBenchBaseline regenerates BENCH_world.json when run with
// -world-bench-out (wired to `make bench-world`); otherwise it is skipped.
// It enforces the refactor's acceptance gates: >= 3x over the legacy
// reply-path shape, an allocation budget of 125 allocs/op on the batched
// rows, and a sub-2s fully-materialized build of a 10^8-host world.
func TestWriteWorldBenchBaseline(t *testing.T) {
	if *worldBenchOut == "" {
		t.Skip("pass -world-bench-out to regenerate BENCH_world.json")
	}
	w := benchWorld()
	silent := silentTargets()
	routed := routedTargets(w)
	pktsPerOp := 3 * len(silent)

	measure := func(name string, targets []ipaddr.Addr, link wire.Link) benchEntry {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			s := scanner.New(link, scanner.WithSecret(7))
			for i := 0; i < b.N; i++ {
				s.Scan(targets, proto.ICMP)
			}
		})
		nsOp := float64(r.T.Nanoseconds()) / float64(r.N)
		return benchEntry{
			Name:        name,
			NsPerOp:     nsOp,
			PktsPerSec:  float64(3*len(targets)) / (nsOp / 1e9),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
	}

	out := worldBenchBaseline{
		Schema:                 "seedscan-bench-world/v1",
		GoVersion:              runtime.Version(),
		CPUs:                   runtime.NumCPU(),
		TargetsPerOp:           len(silent),
		PacketsPerOp:           pktsPerOp,
		ScanBaselinePktsPerSec: scanBaselinePktsPerSec,
	}
	out.Results = append(out.Results,
		measure("unrouted-legacy", silent, newLegacyWorldLink(w)),
		measure("unrouted-batched", silent, w.Link()),
		measure("routed-legacy", routed, newLegacyWorldLink(w)),
		measure("routed-batched", routed, w.Link()),
	)
	legacy, batched := out.Results[0], out.Results[1]
	out.SpeedupBatchedLegacy = batched.PktsPerSec / legacy.PktsPerSec
	out.SpeedupVsScanBaseline = batched.PktsPerSec / scanBaselinePktsPerSec

	// World-size × workers scaling grid through the cluster path.
	for _, scale := range []float64{1, 10, 100} {
		buildStart := time.Now()
		sw := world.New(world.Config{Seed: 42, SizeScale: scale, LossRate: 0})
		hosts := sw.Stats().ExpectedHosts // forces full materialization
		buildSecs := time.Since(buildStart).Seconds()
		targets := routedTargets(sw)
		for _, workers := range []int{1, 2, 4, 8} {
			pool := cluster.NewLocalPool(workers, sw.Link(),
				cluster.Config{Secret: 7, ShardSize: 256})
			r := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					pool.Scan(targets, proto.ICMP)
				}
			})
			nsOp := float64(r.T.Nanoseconds()) / float64(r.N)
			out.Scaling = append(out.Scaling, worldScalingEntry{
				SizeScale:     scale,
				Workers:       workers,
				ExpectedHosts: hosts,
				BuildSeconds:  buildSecs,
				PktsPerSec:    float64(3*len(targets)) / (nsOp / 1e9),
			})
		}
		if scale >= 100 {
			if buildSecs > 2 {
				t.Errorf("SizeScale=%g world took %.2fs to fully materialize (budget 2s)", scale, buildSecs)
			}
			if hosts < 1e8 {
				t.Errorf("SizeScale=%g world holds %.3g expected hosts, want >= 1e8", scale, hosts)
			}
		}
	}

	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*worldBenchOut, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("wrote %s: batched %.2fM pkts/sec vs legacy %.2fM (%.2fx), vs committed scanner baseline %.2fx\n",
		*worldBenchOut, batched.PktsPerSec/1e6, legacy.PktsPerSec/1e6,
		out.SpeedupBatchedLegacy, out.SpeedupVsScanBaseline)
	if out.SpeedupBatchedLegacy < 3 {
		t.Errorf("speedup %.2fx below the 3x acceptance floor", out.SpeedupBatchedLegacy)
	}
	for _, i := range []int{1, 3} {
		if e := out.Results[i]; e.AllocsPerOp > 125 {
			t.Errorf("%s allocates %d allocs/op, budget 125", e.Name, e.AllocsPerOp)
		}
	}
}
