package main

import (
	"context"
	"net/http"
	"strconv"

	"seedscan/internal/experiment"
	"seedscan/internal/ipaddr"
	"seedscan/internal/probe"
	"seedscan/internal/proto"
	"seedscan/internal/scanner"
	"seedscan/internal/tga"
	"seedscan/internal/wire"
)

// The timing wrappers below measure each layer from outside, through the
// public interface the layer is called by. Each forwards every call
// unchanged and keeps every optional interface the caller type-asserts
// for, so a traced run executes the same program as an untraced one (the
// transparency test pins this).

// exchangeTimer is a pass-through wire.Middleware timing each batch
// exchange with the world. Placed innermost in EnvConfig.Chain, its spans
// cover the world's reply path and nothing else.
type exchangeTimer struct{ rec *recorder }

func (x exchangeTimer) Wrap(next wire.Link) wire.Link {
	return wire.LinkFunc(func(pkts [][]byte, rb *probe.ReplyBuf) {
		start := x.rec.now()
		next.ExchangeBatchInto(pkts, rb)
		end := x.rec.now()
		replies := 0
		for i := range pkts {
			if rb.Reply(i) != nil {
				replies++
			}
		}
		x.rec.add(span{Parent: x.rec.scan.Load(), Name: "world.exchange", Start: start, End: end,
			N: int64(len(pkts)), M: int64(replies)})
	})
}

// timedProber wraps the scanner surface experiments probe through. It
// implements both scanner.Prober and scanner.ContextProber, as the
// scanner does, so tga.RunContext and the daemon still take their
// cancellable paths.
type timedProber struct {
	inner experiment.ScanProber
	rec   *recorder
}

func (p *timedProber) begin() (id, parent, prevScan, start int64) {
	id = p.rec.next.Add(1)
	return id, p.rec.cur.Load(), p.rec.scan.Swap(id), p.rec.now()
}

func (p *timedProber) end(id, parent, prevScan, start int64, targets, active int) {
	p.rec.scan.Store(prevScan)
	p.rec.add(span{ID: id, Parent: parent, Name: "scanner.scan", Start: start, End: p.rec.now(),
		N: int64(targets), M: int64(active)})
}

func countActive(rs []scanner.Result) int {
	n := 0
	for _, r := range rs {
		if r.Active() {
			n++
		}
	}
	return n
}

func (p *timedProber) Scan(targets []ipaddr.Addr, pr proto.Protocol) []scanner.Result {
	id, parent, prev, start := p.begin()
	rs := p.inner.Scan(targets, pr)
	p.end(id, parent, prev, start, len(rs), countActive(rs))
	return rs
}

func (p *timedProber) ScanActive(targets []ipaddr.Addr, pr proto.Protocol) []ipaddr.Addr {
	id, parent, prev, start := p.begin()
	out := p.inner.ScanActive(targets, pr)
	p.end(id, parent, prev, start, len(targets), len(out))
	return out
}

func (p *timedProber) ScanContext(ctx context.Context, targets []ipaddr.Addr, pr proto.Protocol) ([]scanner.Result, error) {
	id, parent, prev, start := p.begin()
	rs, err := p.inner.ScanContext(ctx, targets, pr)
	p.end(id, parent, prev, start, len(rs), countActive(rs))
	return rs, err
}

func (p *timedProber) ScanActiveContext(ctx context.Context, targets []ipaddr.Addr, pr proto.Protocol) ([]ipaddr.Addr, error) {
	id, parent, prev, start := p.begin()
	out, err := p.inner.ScanActiveContext(ctx, targets, pr)
	p.end(id, parent, prev, start, len(targets), len(out))
	return out, err
}

// timedGen wraps a tga.Generator; its spans hang off the grid cell that
// runs it. NextBatch may run on the pipelined run loop's producer
// goroutine, so the parent is fixed at construction, not read from the
// recorder's cursor.
type timedGen struct {
	inner  tga.Generator
	rec    *recorder
	parent int64
}

func (g *timedGen) Name() string { return g.inner.Name() }
func (g *timedGen) Online() bool { return g.inner.Online() }

func (g *timedGen) Init(seeds []ipaddr.Addr) error {
	end := g.rec.leaf("tga.init", g.inner.Name(), g.parent)
	err := g.inner.Init(seeds)
	end(len(seeds), 0)
	return err
}

func (g *timedGen) NextBatch(n int) []ipaddr.Addr {
	end := g.rec.leaf("tga.generate", g.inner.Name(), g.parent)
	out := g.inner.NextBatch(n)
	end(len(out), 0)
	return out
}

func (g *timedGen) Feedback(results []tga.ProbeResult) {
	end := g.rec.leaf("tga.feedback", g.inner.Name(), g.parent)
	g.inner.Feedback(results)
	end(len(results), 0)
}

// timedBuilder additionally forwards tga.ModelBuilder, which the run loop
// type-asserts for to route model mining through the model cache.
type timedBuilder struct {
	*timedGen
	mb tga.ModelBuilder
}

func (g *timedBuilder) ModelParams() string { return g.mb.ModelParams() }

func (g *timedBuilder) BuildModel(seeds []ipaddr.Addr) (tga.Model, error) {
	end := g.rec.leaf("tga.model_build", g.inner.Name(), g.parent)
	m, err := g.mb.BuildModel(seeds)
	end(len(seeds), 0)
	return m, err
}

func (g *timedBuilder) InitFromModel(m tga.Model, seeds []ipaddr.Addr) error {
	end := g.rec.leaf("tga.init", g.inner.Name(), g.parent)
	err := g.mb.InitFromModel(m, seeds)
	end(len(seeds), 0)
	return err
}

func wrapGen(g tga.Generator, rec *recorder, parent int64) tga.Generator {
	tg := &timedGen{inner: g, rec: rec, parent: parent}
	if mb, ok := g.(tga.ModelBuilder); ok {
		return &timedBuilder{timedGen: tg, mb: mb}
	}
	return tg
}

// timedModels wraps the model cache. A lookup that builds shows a
// tga.model_build child; one without is a cache hit.
type timedModels struct {
	inner  tga.ModelSource
	rec    *recorder
	parent int64
}

func (s *timedModels) GetOrBuild(ctx context.Context, g tga.ModelBuilder, seeds []ipaddr.Addr) (tga.Model, error) {
	end := s.rec.leaf("tga.model_get", g.Name(), s.parent)
	m, err := s.inner.GetOrBuild(ctx, g, seeds)
	end(len(seeds), 0)
	return m, err
}

// timedDealiaser wraps the output dealiaser; scans it issues become its
// children.
type timedDealiaser struct {
	inner tga.Dealiaser
	rec   *recorder
	mode  string
}

func (d *timedDealiaser) Split(addrs []ipaddr.Addr) (clean, aliased []ipaddr.Addr) {
	_, end := d.rec.enter("alias.split", d.mode)
	clean, aliased = d.inner.Split(addrs)
	end(len(addrs), len(aliased))
	return clean, aliased
}

// reqHeader carries the load generator's request index, so a handler
// span can be matched to the client's timing of the same request.
const reqHeader = "X-Bench-Req"

// timedHandler wraps the serve.Server handler.
type timedHandler struct {
	inner http.Handler
	rec   *recorder
}

func (h timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	end := h.rec.leaf("serve.handler", "", 0)
	h.inner.ServeHTTP(w, r)
	idx, _ := strconv.Atoi(r.Header.Get(reqHeader))
	end(idx, 0)
}
