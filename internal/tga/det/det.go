// Package det implements DET (Song et al., ToN 2022): a space tree split
// by minimum entropy, searched online. Each batch is allocated to leaves
// by their observed hit rate, and the tree is periodically rebuilt with
// discovered active addresses folded into the seed set, letting DET hone
// in on productive regions — or, when seeds contain aliases, dive straight
// into aliased regions (the RQ1.a failure mode).
package det

import (
	"errors"
	"fmt"
	"sort"

	"seedscan/internal/ipaddr"
	"seedscan/internal/tga"
)

// Generator is the DET TGA. Construct with New.
type Generator struct {
	// MinLeaf stops splitting below this many seeds (default 4).
	MinLeaf int
	// RebuildEvery rebuilds the tree after this many feedback rounds
	// (default 16).
	RebuildEvery int
	// Explore is the budget share spent uniformly across leaves regardless
	// of reward (default 0.35).
	Explore float64

	seeds    []ipaddr.Addr
	leaves   []*tga.TreeNode
	pending  map[ipaddr.Addr]*tga.TreeNode // candidate → proposing leaf
	emitted  *ipaddr.Set                   // never re-propose after a rebuild
	hits     []ipaddr.Addr
	rounds   int
	rebuilds int
}

// New returns a DET generator with default parameters.
func New() *Generator {
	return &Generator{MinLeaf: 4, RebuildEvery: 16, Explore: 0.35}
}

// Name implements tga.Generator.
func (g *Generator) Name() string { return "DET" }

// Online implements tga.Generator.
func (g *Generator) Online() bool { return true }

func (g *Generator) minLeaf() int {
	if g.MinLeaf <= 0 {
		return 4
	}
	return g.MinLeaf
}

// ModelParams implements tga.ModelBuilder: the min-entropy space tree.
// Only MinLeaf shapes the initial tree; RebuildEvery and Explore steer the
// online search and are excluded.
func (g *Generator) ModelParams() string { return tga.MinEntropyTree.Params(g.minLeaf()) }

// BuildModel implements tga.ModelBuilder: the initial min-entropy space
// tree over the deduplicated seeds. Online rebuilds fold hits in and are
// per-run state, so only this first tree is cacheable.
func (g *Generator) BuildModel(seeds []ipaddr.Addr) (tga.Model, error) {
	if len(seeds) == 0 {
		return nil, errors.New("det: empty seed set")
	}
	return tga.MinEntropyTree.Mine(seeds, g.minLeaf()), nil
}

// InitFromModel implements tga.ModelBuilder.
func (g *Generator) InitFromModel(m tga.Model, seeds []ipaddr.Addr) error {
	tm, ok := m.(*tga.TreeModel)
	if !ok {
		return fmt.Errorf("det: model type %T", m)
	}
	if g.RebuildEvery <= 0 {
		g.RebuildEvery = 16
	}
	if g.Explore <= 0 {
		g.Explore = 0.35
	}
	g.MinLeaf = g.minLeaf()
	g.seeds = seeds
	g.pending = make(map[ipaddr.Addr]*tga.TreeNode)
	g.emitted = ipaddr.NewSet()
	g.leaves = tm.Leaves()
	g.rebuilds++
	return nil
}

// Init builds the initial entropy-split tree.
func (g *Generator) Init(seeds []ipaddr.Addr) error {
	m, err := g.BuildModel(seeds)
	if err != nil {
		return err
	}
	return g.InitFromModel(m, seeds)
}

func (g *Generator) rebuild() {
	seedSet := ipaddr.NewOASetFrom(g.seeds)
	for _, h := range g.hits {
		seedSet.Add(h)
	}
	root := tga.BuildTreeAuto(seedSet.Slice(), g.MinLeaf, tga.SplitMinEntropy)
	g.leaves = root.Leaves()
	g.rebuilds++
}

// NextBatch allocates (1-Explore) of the batch to leaves by descending
// reward and the rest uniformly.
func (g *Generator) NextBatch(n int) []ipaddr.Addr {
	if len(g.leaves) == 0 {
		return nil
	}
	order := make([]*tga.TreeNode, 0, len(g.leaves))
	for _, l := range g.leaves {
		if l.Gen != nil {
			order = append(order, l)
		}
	}
	if len(order) == 0 {
		return nil
	}
	// Score: smoothed hit rate with a mildly pessimistic prior, so probed
	// productive leaves outrank untouched ones; ties (notably all-untouched
	// leaves early on) break by seed density, which is what the entropy
	// tree encodes about where hits live.
	score := func(l *tga.TreeNode) float64 {
		return (float64(l.Hits) + 1) / (float64(l.Probes) + 8)
	}
	sort.SliceStable(order, func(i, j int) bool {
		si, sj := score(order[i]), score(order[j])
		if si != sj {
			return si > sj
		}
		return len(order[i].Seeds) > len(order[j].Seeds)
	})

	out := make([]ipaddr.Addr, 0, n)
	exploit := int(float64(n) * (1 - g.Explore))
	// Exploit: top leaves get geometric shares.
	take := func(l *tga.TreeNode, k int) {
		for got := 0; got < k; {
			a, ok := l.Gen.Next()
			if !ok {
				l.Gen = nil
				return
			}
			if !g.emitted.Add(a) {
				continue // already proposed before a rebuild
			}
			out = append(out, a)
			g.pending[a] = l
			l.Probes++
			got++
		}
	}
	share := exploit / 2
	for _, l := range order {
		if share < 1 {
			share = 1
		}
		if len(out) >= exploit {
			break
		}
		if rem := exploit - len(out); share > rem {
			share = rem
		}
		take(l, share)
		share /= 2
	}
	// Explore: round-robin over all live leaves.
	i := 0
	for len(out) < n && i < 4*len(order) {
		l := order[i%len(order)]
		if l.Gen != nil {
			take(l, 1)
		}
		i++
	}
	return out
}

// Feedback updates leaf rewards and folds hits into the seed pool;
// periodically the tree is rebuilt around them.
func (g *Generator) Feedback(results []tga.ProbeResult) {
	for _, r := range results {
		l, ok := g.pending[r.Addr]
		if !ok {
			continue
		}
		delete(g.pending, r.Addr)
		if r.Active {
			l.Hits++
			g.hits = append(g.hits, r.Addr)
		}
		if r.Aliased {
			l.Alias++
		}
	}
	g.rounds++
	if g.rounds%g.RebuildEvery == 0 {
		g.rebuild()
		g.pending = make(map[ipaddr.Addr]*tga.TreeNode)
	}
}

// Rebuilds reports how many times the tree was rebuilt (diagnostics).
func (g *Generator) Rebuilds() int { return g.rebuilds }
