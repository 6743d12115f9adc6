// Package sixhit implements 6Hit (Hou et al., INFOCOM 2021): the first
// fully online tree TGA. It builds a 6Tree-style space tree, then treats
// leaf selection as a multi-armed bandit: each leaf carries a Q-value
// updated from batch hit rates, and generation is ε-greedy — mostly the
// best-Q leaves, with a random exploration slice. The tree is recreated
// periodically around accumulated hits.
package sixhit

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"seedscan/internal/ipaddr"
	"seedscan/internal/tga"
)

// Generator is the 6Hit TGA. Construct with New.
type Generator struct {
	// MinLeaf stops splitting below this many seeds (default 4).
	MinLeaf int
	// Epsilon is the random-exploration share (default 0.1).
	Epsilon float64
	// Alpha is the Q-value learning rate (default 0.3).
	Alpha float64
	// RebuildEvery recreates the tree after this many feedback rounds
	// (default 16).
	RebuildEvery int
	// Seed drives exploration randomness (default 1).
	Seed int64

	rng     *rand.Rand
	seeds   []ipaddr.Addr
	leaves  []*tga.TreeNode
	q       map[*tga.TreeNode]float64
	batchN  map[*tga.TreeNode]int // probes this round
	batchH  map[*tga.TreeNode]int // hits this round
	pending map[ipaddr.Addr]*tga.TreeNode
	emitted *ipaddr.Set
	hits    []ipaddr.Addr
	rounds  int
}

// New returns a 6Hit generator with default parameters.
func New() *Generator {
	return &Generator{MinLeaf: 4, Epsilon: 0.1, Alpha: 0.3, RebuildEvery: 16, Seed: 1}
}

// Name implements tga.Generator.
func (g *Generator) Name() string { return "6Hit" }

// Online implements tga.Generator.
func (g *Generator) Online() bool { return true }

func (g *Generator) minLeaf() int {
	if g.MinLeaf <= 0 {
		return 4
	}
	return g.MinLeaf
}

// ModelParams implements tga.ModelBuilder: the leftmost space tree, shared
// with 6Tree and 6Scan. Only MinLeaf shapes the initial tree; the bandit
// knobs (Epsilon, Alpha, RebuildEvery, Seed) steer the online search and
// are excluded.
func (g *Generator) ModelParams() string { return tga.LeftmostTree.Params(g.minLeaf()) }

// BuildModel implements tga.ModelBuilder: the initial 6Tree-style space
// tree over the deduplicated seeds. Later rebuilds fold hits in and stay
// per-run.
func (g *Generator) BuildModel(seeds []ipaddr.Addr) (tga.Model, error) {
	if len(seeds) == 0 {
		return nil, errors.New("sixhit: empty seed set")
	}
	return tga.LeftmostTree.Mine(seeds, g.minLeaf()), nil
}

// InitFromModel implements tga.ModelBuilder.
func (g *Generator) InitFromModel(m tga.Model, seeds []ipaddr.Addr) error {
	tm, ok := m.(*tga.TreeModel)
	if !ok {
		return fmt.Errorf("sixhit: model type %T", m)
	}
	if g.Epsilon <= 0 {
		g.Epsilon = 0.1
	}
	if g.Alpha <= 0 {
		g.Alpha = 0.3
	}
	if g.RebuildEvery <= 0 {
		g.RebuildEvery = 16
	}
	g.MinLeaf = g.minLeaf()
	g.rng = rand.New(rand.NewSource(g.Seed))
	g.seeds = seeds
	g.emitted = ipaddr.NewSet()
	g.pending = make(map[ipaddr.Addr]*tga.TreeNode)
	g.adopt(tm.Leaves())
	return nil
}

// Init builds the initial tree.
func (g *Generator) Init(seeds []ipaddr.Addr) error {
	m, err := g.BuildModel(seeds)
	if err != nil {
		return err
	}
	return g.InitFromModel(m, seeds)
}

// adopt installs a fresh leaf set and resets the bandit state over it.
func (g *Generator) adopt(leaves []*tga.TreeNode) {
	g.leaves = leaves
	g.q = make(map[*tga.TreeNode]float64, len(g.leaves))
	g.batchN = make(map[*tga.TreeNode]int)
	g.batchH = make(map[*tga.TreeNode]int)
	for _, l := range g.leaves {
		// Optimistic initialization encourages trying every region once.
		g.q[l] = 0.5
	}
}

func (g *Generator) rebuild() {
	pool := ipaddr.NewOASetFrom(g.seeds)
	for _, h := range g.hits {
		pool.Add(h)
	}
	root := tga.BuildTreeAuto(pool.Slice(), g.MinLeaf, tga.SplitLeftmost)
	g.adopt(root.Leaves())
}

func (g *Generator) live() []*tga.TreeNode {
	out := g.leaves[:0:0]
	for _, l := range g.leaves {
		if l.Gen != nil {
			out = append(out, l)
		}
	}
	return out
}

// NextBatch spends (1-ε) of the batch on the highest-Q leaves and ε on
// uniformly random leaves.
func (g *Generator) NextBatch(n int) []ipaddr.Addr {
	live := g.live()
	if len(live) == 0 {
		return nil
	}
	sort.SliceStable(live, func(i, j int) bool { return g.q[live[i]] > g.q[live[j]] })

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
			g.batchN[l]++
			got++
		}
	}

	exploit := n - int(float64(n)*g.Epsilon)
	// Greedy: top leaf gets half the exploit budget, next gets half of the
	// remainder, and so on.
	share := exploit / 2
	for _, l := range live {
		if len(out) >= exploit {
			break
		}
		if share < 1 {
			share = 1
		}
		if rem := exploit - len(out); share > rem {
			share = rem
		}
		take(l, share)
		share /= 2
	}
	// Explore: random leaves.
	for tries := 0; len(out) < n && tries < 8*len(live); tries++ {
		l := live[g.rng.Intn(len(live))]
		if l.Gen != nil {
			take(l, 1)
		}
	}
	return out
}

// Feedback updates Q-values from the round's hit rates and periodically
// recreates the tree.
func (g *Generator) Feedback(results []tga.ProbeResult) {
	for _, r := range results {
		l, ok := g.pending[r.Addr]
		if !ok {
			continue
		}
		delete(g.pending, r.Addr)
		if r.Active {
			g.batchH[l]++
			l.Hits++
			g.hits = append(g.hits, r.Addr)
		}
		l.Probes++
	}
	for l, n := range g.batchN {
		if n == 0 {
			continue
		}
		reward := float64(g.batchH[l]) / float64(n)
		g.q[l] = (1-g.Alpha)*g.q[l] + g.Alpha*reward
	}
	g.batchN = make(map[*tga.TreeNode]int)
	g.batchH = make(map[*tga.TreeNode]int)

	g.rounds++
	if g.rounds%g.RebuildEvery == 0 {
		g.rebuild()
		g.pending = make(map[ipaddr.Addr]*tga.TreeNode)
	}
}
