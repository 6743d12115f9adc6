// Serve-daemon load benchmarks and the BENCH_serve.json baseline writer.
//
// The hitlist service's contract is cheap reads: a point lookup is two
// binary searches over an immutable byte image, so the HTTP round trip —
// not the store — should dominate latency. The bench drives a real
// `internal/serve` server over a real hitlist build through the loopback
// HTTP stack and records what a client sees: p50/p99 lookup latency, bulk
// lookup throughput (addresses answered per second), and how long opening
// a published snapshot takes.
//
// `make bench-serve` regenerates BENCH_serve.json from these measurements;
// see README.md for the format.
package seedscan

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"seedscan/internal/hitlist"
	"seedscan/internal/hitlistdb"
	"seedscan/internal/ipaddr"
	"seedscan/internal/scanner"
	"seedscan/internal/seeds"
	"seedscan/internal/serve"
	"seedscan/internal/world"
)

var serveBenchOut = flag.String("serve-bench-out", "",
	"write the serve load baseline JSON to this path (see make bench-serve)")

// serveBenchBaseline is the BENCH_serve.json schema. The committed file is
// the PR's acceptance artifact: lookup p99 and bulk throughput are gated.
type serveBenchBaseline struct {
	Schema          string  `json:"schema"`
	GoVersion       string  `json:"go_version"`
	CPUs            int     `json:"cpus"`
	Addrs           int     `json:"addrs"`
	Prefixes        int     `json:"aliased_prefixes"`
	SnapshotBytes   int     `json:"snapshot_bytes"`
	OpenMillis      float64 `json:"snapshot_open_ms"`
	LookupRequests  int     `json:"lookup_requests"`
	LookupP50Micros float64 `json:"lookup_p50_us"`
	LookupP99Micros float64 `json:"lookup_p99_us"`
	LookupQPS       float64 `json:"lookup_qps"`
	BulkBatch       int     `json:"bulk_batch"`
	BulkAddrsPerSec float64 `json:"bulk_addrs_per_sec"`
}

// serveBenchWorld publishes one real hitlist build into a store and returns
// a test server over it. Bigger than the unit-test worlds so the record
// section spans many index blocks.
func serveBenchWorld(t testing.TB) (*httptest.Server, *hitlistdb.Store, string) {
	t.Helper()
	w := world.New(world.Config{Seed: 42, NumASes: 150, LossRate: 0})
	w.SetEpoch(world.CollectEpoch)
	srcs := seeds.CollectAll(w, seeds.CollectConfig{Seed: 7, Scale: 0.4})
	w.SetEpoch(world.ScanEpoch)
	sc := scanner.New(w.Link(), scanner.WithSecret(3))
	svc, err := hitlist.New(hitlist.WithProber(sc), hitlist.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]*seeds.Dataset, 0, len(srcs))
	for _, src := range seeds.AllSources {
		inputs = append(inputs, srcs[src])
	}
	snap, err := svc.BuildContext(context.Background(), inputs...)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := hitlistdb.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	db, err := st.Publish(snap)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(st)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, st, filepath.Join(dir, fmt.Sprintf("gen-%08d.hldb", db.Generation()))
}

// benchProbeAddrs returns a query mix over the published records: mostly
// hits spread across the whole address range, with a share of misses.
func benchProbeAddrs(db *hitlistdb.DB, n int) []ipaddr.Addr {
	addrs := db.Snapshot().Responsive.Sorted()
	out := make([]ipaddr.Addr, 0, n)
	for i := 0; i < n; i++ {
		if i%8 == 7 { // miss
			out = append(out, ipaddr.MustParse("2001:db8:ffff::1").AddLo(uint64(i)))
			continue
		}
		out = append(out, addrs[(i*7919)%len(addrs)])
	}
	return out
}

// TestWriteServeBenchBaseline regenerates BENCH_serve.json when run with
// -serve-bench-out (wired to `make bench-serve`); otherwise it is skipped.
// It fails when lookup p99 exceeds 50ms or bulk throughput falls below
// 10k addresses/sec — generous CI-runner floors; interactive machines land
// orders of magnitude better.
func TestWriteServeBenchBaseline(t *testing.T) {
	if *serveBenchOut == "" {
		t.Skip("pass -serve-bench-out to regenerate BENCH_serve.json")
	}
	ts, st, dbPath := serveBenchWorld(t)
	db := st.Current()

	// Snapshot open time: the cost a daemon pays per generation swap.
	openStart := time.Now()
	reopened, err := hitlistdb.Open(dbPath)
	if err != nil {
		t.Fatal(err)
	}
	openMillis := float64(time.Since(openStart).Microseconds()) / 1000
	if reopened.AddrCount() != db.AddrCount() {
		t.Fatal("reopened snapshot diverges")
	}

	// Point-lookup latency: 4 clients, sequential requests each, client-
	// observed latency over the full loopback HTTP round trip.
	const clients = 4
	const perClient = 500
	probes := benchProbeAddrs(db, clients*perClient)
	latencies := make([]float64, clients*perClient)
	lookupStart := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := ts.Client()
			for i := 0; i < perClient; i++ {
				idx := c*perClient + i
				reqStart := time.Now()
				resp, err := client.Get(ts.URL + "/v1/lookup?addr=" + probes[idx].String())
				if err == nil {
					resp.Body.Close()
				}
				latencies[idx] = float64(time.Since(reqStart).Microseconds())
			}
		}(c)
	}
	wg.Wait()
	lookupWall := time.Since(lookupStart).Seconds()
	sort.Float64s(latencies)
	quantile := func(q float64) float64 { return latencies[int(q*float64(len(latencies)-1))] }

	// Bulk throughput: full batches through /v1/bulk, counted in addresses
	// answered per second.
	const bulkBatch = 1024
	const bulkRounds = 20
	bulkAddrs := benchProbeAddrs(db, bulkBatch)
	raw := make([]string, len(bulkAddrs))
	for i, a := range bulkAddrs {
		raw[i] = a.String()
	}
	body, _ := json.Marshal(map[string][]string{"addrs": raw})
	client := ts.Client()
	bulkStart := time.Now()
	for i := 0; i < bulkRounds; i++ {
		resp, err := client.Post(ts.URL+"/v1/bulk", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("bulk status %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
	bulkWall := time.Since(bulkStart).Seconds()

	out := serveBenchBaseline{
		Schema:          "seedscan-bench-serve/v1",
		GoVersion:       runtime.Version(),
		CPUs:            runtime.NumCPU(),
		Addrs:           db.AddrCount(),
		Prefixes:        db.PrefixCount(),
		SnapshotBytes:   len(db.Bytes()),
		OpenMillis:      openMillis,
		LookupRequests:  len(latencies),
		LookupP50Micros: quantile(0.50),
		LookupP99Micros: quantile(0.99),
		LookupQPS:       float64(len(latencies)) / lookupWall,
		BulkBatch:       bulkBatch,
		BulkAddrsPerSec: float64(bulkBatch*bulkRounds) / bulkWall,
	}

	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*serveBenchOut, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("wrote %s: %d addrs, lookup p50 %.0fus p99 %.0fus (%.0f qps), bulk %.0f addrs/sec, open %.1fms\n",
		*serveBenchOut, out.Addrs, out.LookupP50Micros, out.LookupP99Micros,
		out.LookupQPS, out.BulkAddrsPerSec, out.OpenMillis)

	if out.LookupP99Micros > 50_000 {
		t.Errorf("lookup p99 %.0fus above the 50ms acceptance ceiling", out.LookupP99Micros)
	}
	if out.BulkAddrsPerSec < 10_000 {
		t.Errorf("bulk throughput %.0f addrs/sec below the 10k floor", out.BulkAddrsPerSec)
	}
}

// BenchmarkServeLookup measures one loopback point lookup end to end.
func BenchmarkServeLookup(b *testing.B) {
	ts, st, _ := serveBenchWorld(b)
	probes := benchProbeAddrs(st.Current(), 1024)
	client := ts.Client()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Get(ts.URL + "/v1/lookup?addr=" + probes[i%len(probes)].String())
		if err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
	}
}

// BenchmarkSnapshotOpen measures the per-swap cost of validating and
// indexing a published snapshot image.
func BenchmarkSnapshotOpen(b *testing.B) {
	_, st, dbPath := serveBenchWorld(b)
	_ = st
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hitlistdb.Open(dbPath); err != nil {
			b.Fatal(err)
		}
	}
}
