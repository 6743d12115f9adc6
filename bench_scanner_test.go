// Scanner hot-path benchmarks and the BENCH_scanner.json baseline writer.
//
// The dispatch benches use a silent link (no replies), isolating the
// per-packet costs the tentpole refactor targets: chunk claiming, the
// rate-limiter, stats counters, and probe construction. The legacy bench
// re-creates the pre-refactor dispatch shape — one mutex-locked rate-
// limiter Take, one shared-atomics stats bump, one freshly allocated
// probe, and one Link.Exchange interface call per packet — so the speedup
// stays measurable (and regenerable) after the old code is gone.
//
// `make bench-scanner` regenerates BENCH_scanner.json from these
// measurements; see README.md for the format.
package seedscan

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"seedscan/internal/ipaddr"
	"seedscan/internal/probe"
	"seedscan/internal/proto"
	"seedscan/internal/scanner"
	"seedscan/internal/wire"
	"seedscan/internal/world"
)

// dispatchTargets is the per-iteration target count of the dispatch
// benches: 4096 targets × 3 attempts = 12288 packets per op.
const dispatchTargets = 4096

func silentTargets() []ipaddr.Addr {
	targets := make([]ipaddr.Addr, dispatchTargets)
	base := ipaddr.MustParse("2001:db8:bead::")
	for i := range targets {
		targets[i] = base.AddLo(uint64(i))
	}
	return targets
}

// silentLink answers nothing — the dispatch-cost floor.
var silentLink = wire.LinkFunc(func(pkts [][]byte, rb *probe.ReplyBuf) { rb.Reset(len(pkts)) })

// silentExchange is the per-packet equivalent the legacy dispatch calls.
func silentExchange([]byte) [][]byte { return nil }

// --- Legacy (pre-refactor) dispatch emulation ---
//
// The legacy* code below is a transcription of the pre-refactor hot path
// (ScanContext → probeOne → BuildEchoRequest as of the previous release):
// dedup+shuffle prelude, one-index-at-a-time claiming, a mutex-clock Take
// per packet, a variadic-mix cookie per target, a freshly allocated probe
// with byte-pair checksumming, and one exchange call per packet.
// Keeping the transcription here makes the committed baseline regenerable
// after the old implementation is gone.

// legacyRateLimiter is the old mutex-based virtual clock.
type legacyRateLimiter struct {
	mu      sync.Mutex
	gap     float64
	elapsed float64
}

func (r *legacyRateLimiter) take() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.elapsed
	r.elapsed += r.gap
	return t
}

// legacyStats mirrors the old Stats layout: seven shared atomics on
// adjacent cache lines, bumped by every worker on every packet.
type legacyStats struct {
	sent, recv, hits, rsts, unreach, blocked, badCookie atomic.Int64
}

// legacyChecksum is the pre-refactor 16-bit-loop Internet checksum (the
// current probe.checksum folds 64-bit words instead).
func legacyChecksum(src, dst ipaddr.Addr, next uint8, payload []byte) uint16 {
	var sum uint64
	s, d := src.As16(), dst.As16()
	for i := 0; i < 16; i += 2 {
		sum += uint64(binary.BigEndian.Uint16(s[i : i+2]))
		sum += uint64(binary.BigEndian.Uint16(d[i : i+2]))
	}
	sum += uint64(len(payload))
	sum += uint64(next)
	for i := 0; i+1 < len(payload); i += 2 {
		sum += uint64(binary.BigEndian.Uint16(payload[i : i+2]))
	}
	if len(payload)%2 == 1 {
		sum += uint64(payload[len(payload)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// legacyBuildEcho is the pre-refactor ICMPv6 echo builder: it assembled
// the transport segment and the datagram in two separate allocations with
// an extra copy, writing the header through As16 array copies.
func legacyBuildEcho(src, dst ipaddr.Addr, id, seq uint16, payload []byte) []byte {
	l4 := make([]byte, 8+len(payload))
	l4[0] = 128 // echo request
	l4[1] = 0   // code
	binary.BigEndian.PutUint16(l4[4:6], id)
	binary.BigEndian.PutUint16(l4[6:8], seq)
	copy(l4[8:], payload)
	binary.BigEndian.PutUint16(l4[2:4], legacyChecksum(src, dst, probe.ProtoICMPv6, l4))

	pkt := make([]byte, probe.IPv6HeaderLen+len(l4))
	pkt[0] = 6 << 4
	binary.BigEndian.PutUint16(pkt[4:6], uint16(len(l4)))
	pkt[6] = probe.ProtoICMPv6
	pkt[7] = probe.DefaultHopLimit
	s, d := src.As16(), dst.As16()
	copy(pkt[8:24], s[:])
	copy(pkt[24:40], d[:])
	copy(pkt[probe.IPv6HeaderLen:], l4)
	return pkt
}

// legacyMix is the old variadic split-mix cookie fold.
func legacyMix(vals ...uint64) uint64 {
	h := uint64(0x2545f4914f6cdd1d)
	for _, v := range vals {
		x := h ^ v
		x += 0x9e3779b97f4a7c15
		x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
		x = (x ^ x>>27) * 0x94d049bb133111eb
		h = x ^ x>>31
	}
	return h
}

// legacyResult mirrors the old per-target result record.
type legacyResult struct {
	addr     ipaddr.Addr
	status   uint8
	attempts int
}

// legacyDedup is the old map-backed dedup (ipaddr.Dedup now uses a flat
// open-addressed table).
func legacyDedup(addrs []ipaddr.Addr) []ipaddr.Addr {
	seen := make(map[ipaddr.Addr]struct{}, len(addrs))
	out := addrs[:0:0]
	for _, a := range addrs {
		if _, ok := seen[a]; ok {
			continue
		}
		seen[a] = struct{}{}
		out = append(out, a)
	}
	return out
}

// legacyDispatch replays the pre-refactor ScanContext: copy, dedup and
// shuffle the target list, then claim one index per atomic add and run
// probeOne's per-packet loop against the shared mutex limiter and stats.
func legacyDispatch(ctx context.Context, exchange func(pkt []byte) [][]byte, targets []ipaddr.Addr, workers, retries int) []legacyResult {
	src := ipaddr.MustParse("2001:db8:5ca0::1")
	const secret = 7
	targets = legacyDedup(append([]ipaddr.Addr(nil), targets...))
	rng := rand.New(rand.NewSource(int64(legacyMix(secret, 1, uint64(len(targets))))))
	rng.Shuffle(len(targets), func(i, j int) { targets[i], targets[j] = targets[j], targets[i] })

	rl := &legacyRateLimiter{gap: 1.0 / 10000}
	var stats legacyStats
	results := make([]legacyResult, len(targets))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(targets) {
					return
				}
				dst := targets[i]
				res := legacyResult{addr: dst}
				cookie := legacyMix(secret, dst.Hi(), dst.Lo(), 0)
				for attempt := 0; attempt <= retries; attempt++ {
					res.attempts = attempt + 1
					rl.take()
					var payload [8]byte
					binary.BigEndian.PutUint64(payload[:], cookie)
					pkt := legacyBuildEcho(src, dst, uint16(cookie>>48), uint16(attempt), payload[:])
					stats.sent.Add(1)
					for range exchange(pkt) {
						stats.recv.Add(1)
					}
				}
				results[i] = res
			}
		}()
	}
	wg.Wait()
	return results
}

// BenchmarkScannerHotPath measures probe dispatch throughput: the batched
// contention-free path and the legacy pre-refactor emulation, plus the
// end-to-end packet path against the world for context.
func BenchmarkScannerHotPath(b *testing.B) {
	targets := silentTargets()
	pktsPerOp := float64(3 * len(targets))

	report := func(b *testing.B) {
		b.ReportMetric(pktsPerOp*float64(b.N)/b.Elapsed().Seconds(), "pkts/sec")
	}
	b.Run("dispatch-batched", func(b *testing.B) {
		s := scanner.New(silentLink, scanner.WithSecret(7))
		for i := 0; i < b.N; i++ {
			s.Scan(targets, proto.ICMP)
		}
		report(b)
	})
	b.Run("dispatch-legacy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			legacyDispatch(context.Background(), silentExchange, targets, 8, 2)
		}
		report(b)
	})
	b.Run("world-batched", func(b *testing.B) {
		e := benchEnv()
		s := scanner.New(e.World.Link(), scanner.WithSecret(7))
		for i := 0; i < b.N; i++ {
			s.Scan(targets, proto.ICMP)
		}
		report(b)
	})
}

// BenchmarkRateLimiterTake isolates the limiter: the lock-free atomic
// clock versus the old mutex under 8-way contention.
func BenchmarkRateLimiterTake(b *testing.B) {
	b.Run("atomic", func(b *testing.B) {
		rl := scanner.NewRateLimiter(10000)
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				rl.Take()
			}
		})
	})
	b.Run("atomic-taken64", func(b *testing.B) {
		rl := scanner.NewRateLimiter(10000)
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				rl.TakeN(64)
			}
		})
	})
	b.Run("mutex-legacy", func(b *testing.B) {
		rl := &legacyRateLimiter{gap: 1.0 / 10000}
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				rl.take()
			}
		})
	})
}

// --- BENCH_scanner.json baseline writer ---

var scannerBenchOut = flag.String("scanner-bench-out", "",
	"write the scanner hot-path baseline JSON to this path (see make bench-scanner)")

// benchEntry is one row of BENCH_scanner.json.
type benchEntry struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	PktsPerSec  float64 `json:"pkts_per_sec"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// benchBaseline is the BENCH_scanner.json schema; the speedup field is the
// acceptance metric (batched vs the pre-refactor dispatch shape).
type benchBaseline struct {
	Schema               string       `json:"schema"`
	GoVersion            string       `json:"go_version"`
	CPUs                 int          `json:"cpus"`
	TargetsPerOp         int          `json:"targets_per_op"`
	PacketsPerOp         int          `json:"packets_per_op"`
	Results              []benchEntry `json:"results"`
	SpeedupBatchedLegacy float64      `json:"speedup_batched_vs_legacy"`
}

// TestWriteScannerBenchBaseline regenerates BENCH_scanner.json when run
// with -scanner-bench-out (wired to `make bench-scanner`); otherwise it
// is skipped.
func TestWriteScannerBenchBaseline(t *testing.T) {
	if *scannerBenchOut == "" {
		t.Skip("pass -scanner-bench-out to regenerate BENCH_scanner.json")
	}
	targets := silentTargets()
	pktsPerOp := 3 * len(targets)

	measure := func(name string, fn func(b *testing.B)) benchEntry {
		r := testing.Benchmark(fn)
		nsOp := float64(r.T.Nanoseconds()) / float64(r.N)
		return benchEntry{
			Name:        name,
			NsPerOp:     nsOp,
			PktsPerSec:  float64(pktsPerOp) / (nsOp / 1e9),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
	}

	out := benchBaseline{
		Schema:       "seedscan-bench-scanner/v1",
		GoVersion:    runtime.Version(),
		CPUs:         runtime.NumCPU(),
		TargetsPerOp: len(targets),
		PacketsPerOp: pktsPerOp,
	}
	out.Results = append(out.Results,
		measure("dispatch-legacy", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				legacyDispatch(context.Background(), silentExchange, targets, 8, 2)
			}
		}),
		measure("dispatch-batched", func(b *testing.B) {
			b.ReportAllocs()
			s := scanner.New(silentLink, scanner.WithSecret(7))
			for i := 0; i < b.N; i++ {
				s.Scan(targets, proto.ICMP)
			}
		}),
		measure("world-batched", func(b *testing.B) {
			b.ReportAllocs()
			w := world.New(world.Config{Seed: 42, NumASes: 60, LossRate: 0})
			s := scanner.New(w.Link(), scanner.WithSecret(7))
			for i := 0; i < b.N; i++ {
				s.Scan(targets, proto.ICMP)
			}
		}),
	)
	legacy, batched := out.Results[0], out.Results[1]
	out.SpeedupBatchedLegacy = batched.PktsPerSec / legacy.PktsPerSec

	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*scannerBenchOut, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("wrote %s: batched %.2fM pkts/sec vs legacy %.2fM pkts/sec (%.2fx)\n",
		*scannerBenchOut, batched.PktsPerSec/1e6, legacy.PktsPerSec/1e6, out.SpeedupBatchedLegacy)
	if out.SpeedupBatchedLegacy < 2 {
		t.Errorf("speedup %.2fx below the 2x acceptance floor", out.SpeedupBatchedLegacy)
	}
}
