package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// wrappers around the layer's public functions. N and M are the call's
// work and outcome counts (targets and actives, packets and replies,
// addresses and aliased addresses); Tag names the generator, dealiasing
// mode or cell the call belongs to.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Tag    string `json:"tag,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int64  `json:"n,omitempty"`
	M      int64  `json:"m,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. Parents are read
// off two cursors: cur is the innermost open container span (a grid cell,
// a treatment, a dealiaser split, a survey stage) and scan is the open
// scanner call that world exchanges belong to. Both assume containers
// open and close on one goroutine and scanner calls do not overlap, which
// holds for the traced runs: they replay cells one at a time.
type recorder struct {
	t0    time.Time
	next  atomic.Int64
	cur   atomic.Int64
	scan  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

func (r *recorder) add(s span) {
	if s.ID == 0 {
		s.ID = r.next.Add(1)
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// enter opens a container span under the current one and makes it
// current; the returned function closes it with its counts.
func (r *recorder) enter(name, tag string) (id int64, end func(n, m int)) {
	id = r.next.Add(1)
	parent := r.cur.Swap(id)
	start := r.now()
	return id, func(n, m int) {
		r.cur.Store(parent)
		r.add(span{ID: id, Parent: parent, Name: name, Tag: tag, Start: start, End: r.now(), N: int64(n), M: int64(m)})
	}
}

// leaf times one call under an explicit parent without becoming current.
func (r *recorder) leaf(name, tag string, parent int64) func(n, m int) {
	start := r.now()
	return func(n, m int) {
		r.add(span{Parent: parent, Name: name, Tag: tag, Start: start, End: r.now(), N: int64(n), M: int64(m)})
	}
}

// snapshot returns the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeJSONL writes every span, one JSON object per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layer aggregates the spans of one name (optionally one tag).
type layer struct {
	count int
	total time.Duration
	self  time.Duration
	n, m  int64
	durs  []float64 // seconds, one per span
}

// analysis is the per-layer view of a trace: totals and self time per
// span name, and per name+tag.
type analysis struct {
	byName map[string]*layer
	byTag  map[string]*layer // key name + "|" + tag
	spans  []span
}

func analyze(spans []span) *analysis {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	a := &analysis{byName: map[string]*layer{}, byTag: map[string]*layer{}, spans: spans}
	for _, s := range spans {
		self := s.dur() - covered(children[s.ID], s.Start, s.End)
		fold(a.byName, s.Name, s, self)
		fold(a.byTag, s.Name+"|"+s.Tag, s, self)
	}
	return a
}

// fold adds one span, with its self time, to the aggregate under key.
func fold(m map[string]*layer, key string, s span, self time.Duration) {
	l := m[key]
	if l == nil {
		l = &layer{}
		m[key] = l
	}
	l.count++
	l.total += s.dur()
	l.self += self
	l.n += s.N
	l.m += s.M
	l.durs = append(l.durs, s.dur().Seconds())
}

// get returns the aggregate for a span name (zero when absent).
func (a *analysis) get(name string) *layer {
	if l := a.byName[name]; l != nil {
		return l
	}
	return &layer{}
}

// tagged returns the aggregate for a span name and tag.
func (a *analysis) tagged(name, tag string) *layer {
	if l := a.byTag[name+"|"+tag]; l != nil {
		return l
	}
	return &layer{}
}

// union is the wall time covered by at least one span of the name.
func (a *analysis) union(name string) time.Duration {
	var ss []span
	for _, s := range a.spans {
		if s.Name == name {
			ss = append(ss, s)
		}
	}
	return covered(ss, -1<<62, 1<<62)
}

// covered returns how much of [lo, hi] the spans cover, counting
// overlapping spans once. A span's self time is its duration minus the
// part its children cover.
func covered(ss []span, lo, hi int64) time.Duration {
	if len(ss) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(ss))
	for _, s := range ss {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	curA, curB = -1, -1
	for _, x := range iv {
		if x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	total += curB - curA
	return time.Duration(total)
}
