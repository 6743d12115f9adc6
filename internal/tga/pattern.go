package tga

import (
	"math"
	"math/bits"

	"seedscan/internal/ipaddr"
)

// ValueMask is a 16-bit set of hex values observed or allowed at one
// nybble position.
type ValueMask = uint16

// ObservedMasks returns, per nybble position, the set of values seen in
// the seeds — the raw material of every pattern miner.
func ObservedMasks(seeds []ipaddr.Addr) [ipaddr.NybbleCount]ValueMask {
	var m [ipaddr.NybbleCount]ValueMask
	for _, a := range seeds {
		for i := 0; i < ipaddr.NybbleCount; i++ {
			m[i] |= 1 << a.Nybble(i)
		}
	}
	return m
}

// ValueCounts tallies value frequencies per position.
func ValueCounts(seeds []ipaddr.Addr) [ipaddr.NybbleCount][16]int {
	var c [ipaddr.NybbleCount][16]int
	for _, a := range seeds {
		for i := 0; i < ipaddr.NybbleCount; i++ {
			c[i][a.Nybble(i)]++
		}
	}
	return c
}

// PositionEntropy returns the Shannon entropy (bits) of the value
// distribution at each position — Entropy/IP's segmentation signal and
// DET's splitting heuristic.
func PositionEntropy(seeds []ipaddr.Addr) [ipaddr.NybbleCount]float64 {
	counts := ValueCounts(seeds)
	var h [ipaddr.NybbleCount]float64
	n := float64(len(seeds))
	if n == 0 {
		return h
	}
	for i := range counts {
		for _, c := range counts[i] {
			if c == 0 {
				continue
			}
			p := float64(c) / n
			h[i] -= p * math.Log2(p)
		}
	}
	return h
}

// MaskValues lists the values set in m in ascending order.
func MaskValues(m ValueMask) []byte {
	out := make([]byte, 0, bits.OnesCount16(m))
	for v := byte(0); v < 16; v++ {
		if m&(1<<v) != 0 {
			out = append(out, v)
		}
	}
	return out
}

// maskEnum enumerates the cartesian product of per-position value lists in
// odometer order (least significant position varies fastest).
type maskEnum struct {
	values [ipaddr.NybbleCount][]byte
	idx    [ipaddr.NybbleCount]int
	done   bool
	primed bool
}

func newMaskEnum(values [ipaddr.NybbleCount][]byte) *maskEnum {
	e := &maskEnum{values: values}
	for i := range e.values {
		if len(e.values[i]) == 0 {
			e.done = true
		}
	}
	return e
}

// next returns the next address, or false when exhausted.
func (e *maskEnum) next() (ipaddr.Addr, bool) {
	if e.done {
		return ipaddr.Addr{}, false
	}
	if !e.primed {
		e.primed = true
		return e.current(), true
	}
	// Odometer increment from position 31 down.
	for i := ipaddr.NybbleCount - 1; i >= 0; i-- {
		e.idx[i]++
		if e.idx[i] < len(e.values[i]) {
			return e.current(), true
		}
		e.idx[i] = 0
	}
	e.done = true
	return ipaddr.Addr{}, false
}

func (e *maskEnum) current() ipaddr.Addr {
	var a ipaddr.Addr
	for i := 0; i < ipaddr.NybbleCount; i++ {
		a = a.WithNybble(i, e.values[i][e.idx[i]])
	}
	return a
}

// LeafGen generates addresses for one pattern region: first the cartesian
// product of observed values, then progressive widening — adding one
// adjacent value at a time to the most promising positions, enumerating
// exactly the new combinations each widening unlocks. It never emits the
// same address twice.
//
// A LeafGen is lazy: construction only records the masks and widen order,
// and the first Next builds the enumerator. Space trees hold one LeafGen
// per leaf, and a small budget reaches few of them.
type LeafGen struct {
	masks   [ipaddr.NybbleCount]ValueMask // current allowed values
	jobs    []*maskEnum
	started bool
	// widen state
	widenPos []int // positions in widening preference order
	nextW    int
}

// NewLeafGen builds a generator from per-position observed masks.
// widenOrder lists the positions allowed to widen, most preferred first;
// nil allows IID positions 31..16 that were variable, then fixed IID
// positions, a sensible default for tree leaves.
func NewLeafGen(masks [ipaddr.NybbleCount]ValueMask, widenOrder []int) *LeafGen {
	return &LeafGen{masks: masks, widenPos: widenOrder}
}

// start queues the observed-value product and resolves the default widen
// order.
func (g *LeafGen) start() {
	g.started = true
	var values [ipaddr.NybbleCount][]byte
	for i, m := range g.masks {
		values[i] = MaskValues(m)
	}
	g.jobs = append(g.jobs, newMaskEnum(values))
	if g.widenPos == nil {
		// Variable IID positions first (least significant first), then
		// fixed IID positions.
		for i := ipaddr.NybbleCount - 1; i >= 16; i-- {
			if bits.OnesCount16(g.masks[i]) > 1 {
				g.widenPos = append(g.widenPos, i)
			}
		}
		for i := ipaddr.NybbleCount - 1; i >= 16; i-- {
			if bits.OnesCount16(g.masks[i]) == 1 {
				g.widenPos = append(g.widenPos, i)
			}
		}
	}
}

// Next returns the next fresh candidate, or false when the region cannot
// produce more (fully widened and enumerated).
func (g *LeafGen) Next() (ipaddr.Addr, bool) {
	if !g.started {
		g.start()
	}
	for {
		for len(g.jobs) > 0 {
			job := g.jobs[0]
			if a, ok := job.next(); ok {
				return a, true
			}
			g.jobs = g.jobs[1:]
		}
		if !g.widen() {
			return ipaddr.Addr{}, false
		}
	}
}

// widen adds one new value to one position and queues the job enumerating
// the newly unlocked combinations. Returns false when nothing is left to
// widen.
func (g *LeafGen) widen() bool {
	for tries := 0; tries < len(g.widenPos)*16+1; tries++ {
		if len(g.widenPos) == 0 {
			return false
		}
		pos := g.widenPos[g.nextW%len(g.widenPos)]
		g.nextW++
		v, ok := nearestUnset(g.masks[pos])
		if !ok {
			continue
		}
		g.masks[pos] |= 1 << v
		var values [ipaddr.NybbleCount][]byte
		for i, m := range g.masks {
			if i == pos {
				values[i] = []byte{v}
			} else {
				values[i] = MaskValues(m)
			}
		}
		g.jobs = append(g.jobs, newMaskEnum(values))
		return true
	}
	return false
}

// nearestUnset returns the unset value closest to the set ones (pattern
// neighbourhoods first).
func nearestUnset(m ValueMask) (byte, bool) {
	if m == 0xffff {
		return 0, false
	}
	if m == 0 {
		return 0, true
	}
	for dist := 1; dist < 16; dist++ {
		for v := 0; v < 16; v++ {
			if m&(1<<v) == 0 {
				continue
			}
			if nv := v + dist; nv < 16 && m&(1<<nv) == 0 {
				return byte(nv), true
			}
			if nv := v - dist; nv >= 0 && m&(1<<nv) == 0 {
				return byte(nv), true
			}
		}
	}
	return 0, false
}

// MaskSize returns the number of combinations of a mask array (capped to
// avoid overflow; 2^63-1 max).
func MaskSize(masks [ipaddr.NybbleCount]ValueMask) float64 {
	s := 1.0
	for _, m := range masks {
		n := bits.OnesCount16(m)
		if n == 0 {
			return 0
		}
		s *= float64(n)
		if s > math.MaxFloat64/16 {
			return math.MaxFloat64
		}
	}
	return s
}
