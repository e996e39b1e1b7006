package topology

import (
	"math/rand"
	"testing"
)

// naiveLCA climbs both endpoints to their meeting point.
func naiveLCA(t *Tree, u, v NodeID) NodeID {
	for u != v {
		if t.depth[u] >= t.depth[v] {
			u = t.parent[u]
		} else {
			v = t.parent[v]
		}
	}
	return u
}

// naivePathLen walks the path edge by edge.
func naivePathLen(t *Tree, u, v NodeID) int {
	n := 0
	for u != v {
		if t.depth[u] >= t.depth[v] {
			u = t.parent[u]
		} else {
			v = t.parent[v]
		}
		n++
	}
	return n
}

// randomTestTree builds a random tree with n nodes where every node is
// compute (so any node can be a transfer endpoint).
func randomTestTree(tb testing.TB, rng *rand.Rand, n int) *Tree {
	b := NewBuilder()
	ids := make([]NodeID, n)
	ids[0] = b.Compute("n0")
	for i := 1; i < n; i++ {
		ids[i] = b.Compute("")
		b.Link(ids[i], ids[rng.Intn(i)], 1+float64(rng.Intn(5)))
	}
	t, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return t
}

func TestLCAMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(60)
		tr := randomTestTree(t, rng, n)
		for q := 0; q < 200; q++ {
			u := NodeID(rng.Intn(n))
			v := NodeID(rng.Intn(n))
			if got, want := tr.LCA(u, v), naiveLCA(tr, u, v); got != want {
				t.Fatalf("n=%d LCA(%d,%d) = %d, want %d", n, u, v, got, want)
			}
			if got, want := tr.PathLen(u, v), naivePathLen(tr, u, v); got != want {
				t.Fatalf("n=%d PathLen(%d,%d) = %d, want %d", n, u, v, got, want)
			}
		}
	}
}

func TestLCAGeneratedTopologies(t *testing.T) {
	star, err := Star([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	cater, err := Caterpillar([]float64{1, 2, 3, 4, 5}, 2)
	if err != nil {
		t.Fatal(err)
	}
	fat, err := FatTree(3, 2, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []*Tree{star, cater, fat} {
		n := tr.NumNodes()
		for u := NodeID(0); int(u) < n; u++ {
			for v := NodeID(0); int(v) < n; v++ {
				if got, want := tr.LCA(u, v), naiveLCA(tr, u, v); got != want {
					t.Fatalf("LCA(%d,%d) = %d, want %d", u, v, got, want)
				}
			}
		}
	}
}

// TestPathAccumulatorUnicasts checks tree-difference counting against
// explicit Tree.Path walks.
func TestPathAccumulatorUnicasts(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(50)
		tr := randomTestTree(t, rng, n)
		acc := NewPathAccumulator(tr)
		want := make([]int64, tr.NumEdges())
		var buf []EdgeID
		for m := 0; m < 100; m++ {
			u := NodeID(rng.Intn(n))
			v := NodeID(rng.Intn(n))
			c := int64(rng.Intn(5)) // includes zero-size transfers
			acc.AddPath(u, v, c)
			buf = tr.Path(buf[:0], u, v)
			for _, e := range buf {
				want[e] += c
			}
		}
		got := make([]int64, tr.NumEdges())
		acc.FlushInto(got)
		for e := range want {
			if got[e] != want[e] {
				t.Fatalf("trial %d edge %d: got %d, want %d", trial, e, got[e], want[e])
			}
		}
		// Accumulator is reset after flush: flushing again adds nothing.
		again := make([]int64, tr.NumEdges())
		acc.FlushInto(again)
		for e, c := range again {
			if c != 0 {
				t.Fatalf("accumulator not reset: edge %d has %d", e, c)
			}
		}
	}
}

// TestPathAccumulatorSteiner checks virtual-tree multicast accounting
// against the union of the Tree.Path edges from the source to every
// destination, each edge charged once.
func TestPathAccumulatorSteiner(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(50)
		tr := randomTestTree(t, rng, n)
		acc := NewPathAccumulator(tr)
		want := make([]int64, tr.NumEdges())
		for m := 0; m < 60; m++ {
			src := NodeID(rng.Intn(n))
			k := 1 + rng.Intn(6)
			dsts := make([]NodeID, k)
			for i := range dsts {
				dsts[i] = NodeID(rng.Intn(n)) // duplicates and src itself allowed
			}
			c := int64(1 + rng.Intn(4))
			acc.AddSteiner(append(dsts, src), c)
			union := map[EdgeID]bool{}
			for _, d := range dsts {
				for _, e := range tr.Path(nil, src, d) {
					union[e] = true
				}
			}
			for e := range union {
				want[e] += c
			}
		}
		got := make([]int64, tr.NumEdges())
		acc.FlushInto(got)
		for e := range want {
			if got[e] != want[e] {
				t.Fatalf("trial %d edge %d: got %d, want %d", trial, e, got[e], want[e])
			}
		}
	}
}

// TestPathAccumulatorMerge checks sharded accounting: two accumulators
// merged give the same totals as one.
func TestPathAccumulatorMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	tr := randomTestTree(t, rng, 40)
	a := NewPathAccumulator(tr)
	b := NewPathAccumulator(tr)
	single := NewPathAccumulator(tr)
	for m := 0; m < 200; m++ {
		u := NodeID(rng.Intn(40))
		v := NodeID(rng.Intn(40))
		c := int64(1 + rng.Intn(3))
		single.AddPath(u, v, c)
		if m%2 == 0 {
			a.AddPath(u, v, c)
		} else {
			b.AddPath(u, v, c)
		}
	}
	a.MergeFrom(b)
	got := make([]int64, tr.NumEdges())
	a.FlushInto(got)
	want := make([]int64, tr.NumEdges())
	single.FlushInto(want)
	for e := range want {
		if got[e] != want[e] {
			t.Fatalf("edge %d: merged %d, single %d", e, got[e], want[e])
		}
	}
	// b was drained by the merge.
	leftover := make([]int64, tr.NumEdges())
	b.FlushInto(leftover)
	for e, c := range leftover {
		if c != 0 {
			t.Fatalf("merge left %d on edge %d of source accumulator", c, e)
		}
	}
}
