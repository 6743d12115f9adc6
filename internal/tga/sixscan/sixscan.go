// Package sixscan implements 6Scan (Hou et al., ToN 2023): a 6Tree-style
// space tree scanned dynamically. The real tool encodes the originating
// region in each probe's payload so responses re-prioritize regions
// without per-probe state; running in-process we keep the candidate→region
// map directly (the paper's authors had to patch 6Scan's scanner anyway,
// see §4.1). Regions are re-sorted by observed hit counts after every
// feedback round.
//
// 6Scan's algorithmic kinship with 6Tree is why RQ4 finds it contributes
// almost nothing when the two run together.
package sixscan

import (
	"errors"
	"fmt"
	"sort"

	"seedscan/internal/ipaddr"
	"seedscan/internal/tga"
)

// Generator is the 6Scan TGA. Construct with New.
type Generator struct {
	// MinLeaf stops splitting below this many seeds (default 4).
	MinLeaf int
	// TopShare is the batch share given to the currently hottest regions
	// (default 0.7).
	TopShare float64

	leaves  []*tga.TreeNode
	pending map[ipaddr.Addr]*tga.TreeNode
	emitted *ipaddr.Set
	rr      int // round-robin cursor for the cold share
}

// New returns a 6Scan generator with default parameters.
func New() *Generator { return &Generator{MinLeaf: 4, TopShare: 0.7} }

// Name implements tga.Generator.
func (g *Generator) Name() string { return "6Scan" }

// Online implements tga.Generator.
func (g *Generator) Online() bool { return true }

func (g *Generator) minLeaf() int {
	if g.MinLeaf <= 0 {
		return 4
	}
	return g.MinLeaf
}

// ModelParams implements tga.ModelBuilder: the leftmost space tree, shared
// with 6Tree and 6Hit. TopShare only steers the online allocation and is
// excluded.
func (g *Generator) ModelParams() string { return tga.LeftmostTree.Params(g.minLeaf()) }

// BuildModel implements tga.ModelBuilder: the 6Tree-style space tree over
// the deduplicated seeds. 6Scan never rebuilds, so the whole tree is
// cacheable.
func (g *Generator) BuildModel(seeds []ipaddr.Addr) (tga.Model, error) {
	if len(seeds) == 0 {
		return nil, errors.New("sixscan: empty seed set")
	}
	return tga.LeftmostTree.Mine(seeds, g.minLeaf()), nil
}

// InitFromModel implements tga.ModelBuilder.
func (g *Generator) InitFromModel(m tga.Model, seeds []ipaddr.Addr) error {
	tm, ok := m.(*tga.TreeModel)
	if !ok {
		return fmt.Errorf("sixscan: model type %T", m)
	}
	if g.TopShare <= 0 || g.TopShare >= 1 {
		g.TopShare = 0.7
	}
	g.MinLeaf = g.minLeaf()
	g.leaves = tm.Leaves()
	g.pending = make(map[ipaddr.Addr]*tga.TreeNode)
	g.emitted = ipaddr.NewSet()
	return nil
}

// Init builds the space tree with 6Tree's splitting order.
func (g *Generator) Init(seeds []ipaddr.Addr) error {
	m, err := g.BuildModel(seeds)
	if err != nil {
		return err
	}
	return g.InitFromModel(m, seeds)
}

// NextBatch spends TopShare of the batch on regions sorted by region
// encoding feedback (hit count, then seed count) and the rest round-robin
// across all live regions.
func (g *Generator) NextBatch(n int) []ipaddr.Addr {
	live := make([]*tga.TreeNode, 0, len(g.leaves))
	for _, l := range g.leaves {
		if l.Gen != nil {
			live = append(live, l)
		}
	}
	if len(live) == 0 {
		return nil
	}
	sort.SliceStable(live, func(i, j int) bool {
		if live[i].Hits != live[j].Hits {
			return live[i].Hits > live[j].Hits
		}
		return len(live[i].Seeds) > len(live[j].Seeds)
	})

	out := make([]ipaddr.Addr, 0, n)
	take := func(l *tga.TreeNode, k int) {
		for got := 0; got < k; {
			a, ok := l.Gen.Next()
			if !ok {
				l.Gen = nil
				return
			}
			if !g.emitted.Add(a) {
				continue
			}
			out = append(out, a)
			g.pending[a] = l
			l.Probes++
			got++
		}
	}
	hot := int(float64(n) * g.TopShare)
	share := hot / 2
	for _, l := range live {
		if len(out) >= hot {
			break
		}
		if share < 1 {
			share = 1
		}
		if rem := hot - len(out); share > rem {
			share = rem
		}
		take(l, share)
		share /= 2
	}
	for tries := 0; len(out) < n && tries < 4*len(live); tries++ {
		l := live[g.rr%len(live)]
		g.rr++
		if l.Gen != nil {
			take(l, 1)
		}
	}
	return out
}

// Feedback decodes each result back to its region (the in-process
// equivalent of the payload region encoding) and bumps hit counters.
func (g *Generator) Feedback(results []tga.ProbeResult) {
	for _, r := range results {
		l, ok := g.pending[r.Addr]
		if !ok {
			continue
		}
		delete(g.pending, r.Addr)
		if r.Active {
			l.Hits++
		}
		if r.Aliased {
			l.Alias++
		}
	}
}
