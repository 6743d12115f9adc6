// Package sixtree implements 6Tree (Liu et al., Computer Networks 2019):
// divisive hierarchical clustering of the seed set into a space tree,
// splitting on the most significant varying nybble, followed by expansion
// of leaf regions in seed-density order. 6Tree is the ancestor of most
// tree-based TGAs and — per the paper's RQ4 — still outperforms several of
// its successors.
package sixtree

import (
	"errors"
	"fmt"

	"seedscan/internal/ipaddr"
	"seedscan/internal/tga"
)

// Generator is the 6Tree TGA. Construct with New.
type Generator struct {
	// MinLeaf stops splitting below this many seeds (default 4).
	MinLeaf int

	leaves []*tga.TreeNode
	weight []float64
	// produced tracks per-leaf output for proportional allocation.
	produced []int
	// emitted guards against cross-leaf duplicates once leaves widen into
	// each other's space.
	emitted *ipaddr.OASet
	total   int
}

// New returns a 6Tree generator with default parameters.
func New() *Generator { return &Generator{MinLeaf: 4} }

// Name implements tga.Generator.
func (g *Generator) Name() string { return "6Tree" }

// Online implements tga.Generator. 6Tree generates from the static tree.
func (g *Generator) Online() bool { return false }

func (g *Generator) minLeaf() int {
	if g.MinLeaf <= 0 {
		return 4
	}
	return g.MinLeaf
}

// ModelParams implements tga.ModelBuilder: the leftmost space tree, shared
// with 6Scan and 6Hit.
func (g *Generator) ModelParams() string { return tga.LeftmostTree.Params(g.minLeaf()) }

// BuildModel implements tga.ModelBuilder: it mines the space tree over the
// deduplicated seeds, fanning subtree construction across CPUs on large
// seed sets.
func (g *Generator) BuildModel(seeds []ipaddr.Addr) (tga.Model, error) {
	if len(seeds) == 0 {
		return nil, errors.New("sixtree: empty seed set")
	}
	return tga.LeftmostTree.Mine(seeds, g.minLeaf()), nil
}

// InitFromModel implements tga.ModelBuilder: it adopts a mined tree and
// builds fresh run state over it.
func (g *Generator) InitFromModel(m tga.Model, seeds []ipaddr.Addr) error {
	tm, ok := m.(*tga.TreeModel)
	if !ok {
		return fmt.Errorf("sixtree: model type %T", m)
	}
	g.leaves = tm.Leaves()
	g.weight = make([]float64, len(g.leaves))
	g.produced = make([]int, len(g.leaves))
	g.emitted = ipaddr.NewOASet(len(seeds))
	for i, l := range g.leaves {
		// Density-ordered expansion: regions holding more seeds relative
		// to their pattern size are searched harder.
		g.weight[i] = float64(len(l.Seeds))
	}
	return nil
}

// Init builds the space tree.
func (g *Generator) Init(seeds []ipaddr.Addr) error {
	m, err := g.BuildModel(seeds)
	if err != nil {
		return err
	}
	return g.InitFromModel(m, seeds)
}

// NextBatch allocates n candidates across leaves proportionally to seed
// weight, skipping exhausted leaves.
func (g *Generator) NextBatch(n int) []ipaddr.Addr {
	if len(g.leaves) == 0 {
		return nil
	}
	out := make([]ipaddr.Addr, 0, n)
	// Repeatedly pick the leaf with the highest weight-per-produced ratio:
	// a deterministic proportional-share scheduler.
	for len(out) < n {
		best, bestScore := -1, -1.0
		for i, l := range g.leaves {
			if l.Gen == nil {
				continue
			}
			score := g.weight[i] / float64(g.produced[i]+1)
			if score > bestScore {
				best, bestScore = i, score
			}
		}
		if best < 0 {
			break
		}
		l := g.leaves[best]
		// Chunk scales with the leaf's seed weight so small leaves are
		// visited briefly and the batch spreads across many regions —
		// 6Tree's breadth is what makes it competitive on AS diversity.
		chunk := 4 * int(g.weight[best])
		if chunk < 8 {
			chunk = 8
		}
		got := 0
		for got < chunk && len(out) < n {
			a, ok := l.Gen.Next()
			if !ok {
				l.Gen = nil // exhausted
				break
			}
			if !g.emitted.Add(a) {
				continue // another leaf already proposed it
			}
			out = append(out, a)
			got++
		}
		g.produced[best] += got
		if l.Gen == nil && got == 0 {
			continue
		}
	}
	g.total += len(out)
	return out
}

// Feedback implements tga.Generator; 6Tree ignores scan results.
func (g *Generator) Feedback([]tga.ProbeResult) {}

// LeafCount reports the number of tree leaves (for diagnostics and tests).
func (g *Generator) LeafCount() int { return len(g.leaves) }
