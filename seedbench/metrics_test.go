package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestBenchmarkJSONMatchesCode pins BENCHMARK.json's metric lists to the
// metrics the benchmark reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, list := range []struct {
		name string
		json []struct{ Name, Unit string }
		code [][2]string
	}{{"end-to-end", b.EndToEnd, endToEnd}, {"per-layer", b.PerLayer, perLayerMetrics()}} {
		if len(list.json) != len(list.code) {
			t.Fatalf("BENCHMARK.json has %d %s metrics, code %d", len(list.json), list.name, len(list.code))
		}
		for i, m := range list.json {
			if [2]string{m.Name, m.Unit} != list.code[i] {
				t.Errorf("%s metric %d: BENCHMARK.json %s (%s), code %v", list.name, i, m.Name, m.Unit, list.code[i])
			}
		}
	}
}

// TestSelfTime pins the self-time arithmetic: a parent's self time is
// its duration minus the union of its children, clipped to the parent.
func TestSelfTime(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{ID: 1, Name: "scanner.scan", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Name: "world.exchange", Start: 1 * ms, End: 4 * ms},
		{ID: 3, Parent: 1, Name: "world.exchange", Start: 3 * ms, End: 5 * ms},  // overlaps 2
		{ID: 4, Parent: 1, Name: "world.exchange", Start: 9 * ms, End: 12 * ms}, // runs past the parent
		{ID: 5, Name: "world.exchange", Start: 20 * ms, End: 21 * ms},
	}
	a := analyze(spans)
	if got, want := a.get("scanner.scan").self, 5*time.Millisecond; got != want {
		t.Errorf("scanner self = %v, want %v", got, want)
	}
	if got, want := a.union("world.exchange"), 8*time.Millisecond; got != want {
		t.Errorf("exchange union = %v, want %v", got, want)
	}
	if got := a.get("world.exchange").count; got != 4 {
		t.Errorf("exchange count = %d, want 4", got)
	}
}
