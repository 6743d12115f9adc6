package tga

import (
	"math/rand"
	"testing"
	"testing/quick"

	"seedscan/internal/ipaddr"
)

func TestMaskEnumCountsMatchProduct(t *testing.T) {
	// For random small masks, the enumerator must produce exactly the
	// cartesian product size, all distinct.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var values [ipaddr.NybbleCount][]byte
		expect := 1
		for i := range values {
			values[i] = []byte{0}
		}
		// Up to three variable positions with 1-3 values each.
		for k := 0; k < 3; k++ {
			pos := rng.Intn(ipaddr.NybbleCount)
			n := 1 + rng.Intn(3)
			vals := map[byte]bool{}
			for len(vals) < n {
				vals[byte(rng.Intn(16))] = true
			}
			var vs []byte
			for v := range vals {
				vs = append(vs, v)
			}
			// Replacing a position replaces its contribution.
			expect = expect / len(values[pos]) * len(vs)
			values[pos] = vs
		}
		e := newMaskEnum(values)
		seen := ipaddr.NewSet()
		count := 0
		for {
			a, ok := e.next()
			if !ok {
				break
			}
			if !seen.Add(a) {
				return false // duplicate
			}
			count++
			if count > expect {
				return false
			}
		}
		return count == expect
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMaskEnumEmptyPosition(t *testing.T) {
	var values [ipaddr.NybbleCount][]byte
	for i := range values {
		values[i] = []byte{0}
	}
	values[5] = nil // impossible position
	e := newMaskEnum(values)
	if _, ok := e.next(); ok {
		t.Fatal("enumerated with an empty position")
	}
}

func TestNearestUnsetProperties(t *testing.T) {
	f := func(m uint16) bool {
		v, ok := nearestUnset(m)
		if m == 0xffff {
			return !ok
		}
		if !ok {
			return false // any non-full mask must have a candidate
		}
		return m&(1<<v) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLeafGenMatchesWidenedMasks(t *testing.T) {
	// Every generated address must conform to the leaf's current masks
	// (which only ever widen), and its fixed prefix must never change.
	seeds := seedsFrom("2001:db8::1", "2001:db8::2", "2001:db8::11")
	masks := ObservedMasks(seeds)
	g := NewLeafGen(masks, nil)
	prefix := ipaddr.MustParsePrefix("2001:db8::/64")
	for i := 0; i < 2000; i++ {
		a, ok := g.Next()
		if !ok {
			break
		}
		if !prefix.Contains(a) {
			t.Fatalf("candidate %v escaped the fixed prefix", a)
		}
	}
}

func TestMaskSizeEdgeCases(t *testing.T) {
	var masks [ipaddr.NybbleCount]ValueMask
	if MaskSize(masks) != 0 {
		t.Fatal("all-empty mask must have size 0")
	}
	for i := range masks {
		masks[i] = 1
	}
	if MaskSize(masks) != 1 {
		t.Fatal("all-pinned mask must have size 1")
	}
	masks[0] = 0xffff
	if MaskSize(masks) != 16 {
		t.Fatal("one full position must give 16")
	}
}

func TestMaskValuesOrdered(t *testing.T) {
	vs := MaskValues(1<<3 | 1<<0 | 1<<15)
	if len(vs) != 3 || vs[0] != 0 || vs[1] != 3 || vs[2] != 15 {
		t.Fatalf("MaskValues = %v", vs)
	}
	if len(MaskValues(0)) != 0 {
		t.Fatal("empty mask values")
	}
}

// TestLeafGenFrozenSequence pins LeafGen's emitted order on a small
// pattern: the observed product, then widening, through both the default
// and a custom widen order (the latter runs to exhaustion).
func TestLeafGenFrozenSequence(t *testing.T) {
	masks := ObservedMasks(seedsFrom("2001:db8::1", "2001:db8::12"))
	cases := []struct {
		order  []int
		n      int
		digest uint64
		head   []string
	}{
		{nil, 1000, 0x777df22fcde172cb, []string{
			"2001:db8::1", "2001:db8::2", "2001:db8::11", "2001:db8::12",
			"2001:db8::", "2001:db8::10", "2001:db8::20", "2001:db8::21",
			"2001:db8::22", "2001:db8::100", "2001:db8::101", "2001:db8::102",
		}},
		{[]int{28, 31}, 512, 0x2e8159c371da6afd, []string{
			"2001:db8::1", "2001:db8::2", "2001:db8::11", "2001:db8::12",
			"2001:db8::1001", "2001:db8::1002", "2001:db8::1011", "2001:db8::1012",
			"2001:db8::", "2001:db8::10", "2001:db8::1000", "2001:db8::1010",
		}},
	}
	for _, c := range cases {
		g := NewLeafGen(masks, c.order)
		var got []ipaddr.Addr
		for len(got) < 1000 {
			a, ok := g.Next()
			if !ok {
				break
			}
			got = append(got, a)
		}
		for i, want := range c.head {
			if got[i].String() != want {
				t.Fatalf("order %v: address %d = %v, want %s", c.order, i, got[i], want)
			}
		}
		if len(got) != c.n || ipaddr.Digest(got) != c.digest {
			t.Fatalf("order %v: %d addresses, digest %#x; want %d, %#x", c.order, len(got), ipaddr.Digest(got), c.n, c.digest)
		}
	}
}

// TestNewLeafGenIsLazy: construction allocates only the generator; the
// enumerator is built by the first Next.
func TestNewLeafGenIsLazy(t *testing.T) {
	masks := ObservedMasks(seedsFrom("2001:db8::1", "2001:db8::12", "2001:db8:0:1::5"))
	var g *LeafGen
	allocs := testing.AllocsPerRun(100, func() { g = NewLeafGen(masks, nil) })
	if allocs > 1 {
		t.Fatalf("NewLeafGen allocates %.0f times, want at most 1", allocs)
	}
	if _, ok := g.Next(); !ok {
		t.Fatal("lazy LeafGen produced nothing")
	}
}
