package place

import (
	"fmt"
	"math"
	"testing"

	"topompc/internal/topology"
)

// deepTrees returns the canonical deep-gradient fixtures: a tapered
// fat-tree (leaf 16, rack 6.4/4, pod 2.56/1 links) and a graded
// caterpillar (legs 8, spine 8-3-0.5-3-8).
func deepTrees(t *testing.T) map[string]*topology.Tree {
	t.Helper()
	taper, err := topology.FatTree(3, 2, 16, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	grade, err := topology.Caterpillar([]float64{8, 3, 0.5, 3, 8}, 8)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*topology.Tree{"fattree-taper": taper, "caterpillar-grade": grade}
}

// checkPartition fails t unless plan partitions the n compute indices
// exactly: BlockOf covers all n, every index sits in exactly one
// non-empty block, BlockOf agrees with Blocks, and every combiner is a
// member of its own block.
func checkPartition(t *testing.T, label string, n int, plan *BlockPlan) {
	t.Helper()
	if len(plan.BlockOf) != n {
		t.Fatalf("%s: BlockOf covers %d of %d compute nodes", label, len(plan.BlockOf), n)
	}
	seen := make(map[int]bool)
	for b, members := range plan.Blocks {
		if len(members) == 0 {
			t.Errorf("%s: block %d empty", label, b)
		}
		for _, i := range members {
			if seen[i] {
				t.Errorf("%s: compute %d in two blocks", label, i)
			}
			seen[i] = true
			if plan.BlockOf[i] != b {
				t.Errorf("%s: BlockOf[%d]=%d, member of %d", label, i, plan.BlockOf[i], b)
			}
		}
		combinerIn := false
		for _, i := range members {
			combinerIn = combinerIn || i == plan.Combiner[b]
		}
		if !combinerIn {
			t.Errorf("%s: combiner %d outside block %d", label, plan.Combiner[b], b)
		}
	}
	if len(seen) != n {
		t.Errorf("%s: covers %d of %d compute indices", label, len(seen), n)
	}
}

// TestCombinerBlocksPartition: on every random tree (with both capacity
// and uniform weights), the single-level combining plan — the deepest
// hierarchy level as returned by Deepest() — partitions the compute
// index set exactly and holds at least one multi-member block.
func TestCombinerBlocksPartition(t *testing.T) {
	for ti, tree := range randomTrees(t) {
		for wi, w := range [][]float64{Capacities(tree), Uniform(tree.NumCompute())} {
			deep := NewHierarchy(tree, w).Deepest()
			if deep == nil {
				continue
			}
			if len(deep.Levels) != 1 {
				t.Fatalf("tree %d weights %d: Deepest() has %d levels, want 1", ti, wi, len(deep.Levels))
			}
			plan := deep.Levels[0]
			checkPartition(t, fmt.Sprintf("tree %d weights %d", ti, wi), tree.NumCompute(), plan)
			if !hasMultiBlock(plan) {
				t.Errorf("tree %d weights %d: Deepest() plan has no multi-member block: %v", ti, wi, plan.Blocks)
			}
		}
	}
}

// TestHierarchyRefines: on every random tree (and both weight vectors),
// the hierarchy's levels strictly refine — every level partitions the
// compute set exactly (checkPartition), every level-k+1 block is
// contained in one level-k block, every level has strictly more blocks
// than the previous, and the thresholds strictly increase.
func TestHierarchyRefines(t *testing.T) {
	for ti, tree := range randomTrees(t) {
		for _, w := range [][]float64{Capacities(tree), Uniform(tree.NumCompute())} {
			h := NewHierarchy(tree, w)
			if h == nil {
				continue
			}
			if len(h.Levels) != len(h.Thresholds) || len(h.Levels) != len(h.Parents) {
				t.Fatalf("tree %d: ragged hierarchy: %d levels, %d thresholds, %d parent maps",
					ti, len(h.Levels), len(h.Thresholds), len(h.Parents))
			}
			for k, plan := range h.Levels {
				checkPartition(t, fmt.Sprintf("tree %d level %d", ti, k), tree.NumCompute(), plan)
				if k == 0 {
					continue
				}
				// Strict refinement: more blocks, larger threshold, and every
				// block inside its recorded parent.
				prev := h.Levels[k-1]
				if len(plan.Blocks) <= len(prev.Blocks) {
					t.Errorf("tree %d level %d: %d blocks does not refine %d", ti, k, len(plan.Blocks), len(prev.Blocks))
				}
				if h.Thresholds[k] <= h.Thresholds[k-1] {
					t.Errorf("tree %d level %d: threshold %v not above %v", ti, k, h.Thresholds[k], h.Thresholds[k-1])
				}
				for b, members := range plan.Blocks {
					parent := h.Parents[k][b]
					for _, i := range members {
						if prev.BlockOf[i] != parent {
							t.Errorf("tree %d level %d: block %d member %d outside parent block %d",
								ti, k, b, i, parent)
						}
					}
				}
			}
		}
	}
}

// referenceDeepest is the deepest level computed flat, as a test oracle:
// the components of the tree after removing every edge below half the
// strongest finite link, or nil when that leaves a single block or only
// singleton blocks (combining cannot merge anything).
func referenceDeepest(tree *topology.Tree, w []float64) *BlockPlan {
	maxW := 0.0
	for e := 0; e < tree.NumEdges(); e++ {
		if bw := tree.Bandwidth(topology.EdgeID(e)); !math.IsInf(bw, 1) && bw > maxW {
			maxW = bw
		}
	}
	if maxW == 0 {
		return nil
	}
	plan := thresholdBlocks(tree, w, maxW/2)
	if len(plan.Blocks) <= 1 {
		return nil
	}
	for _, members := range plan.Blocks {
		if len(members) > 1 {
			return plan
		}
	}
	return nil
}

// TestHierarchyDeepestMatchesReference: on every random tree, Deepest()
// is nil exactly when the flat reference finds nothing to merge;
// otherwise it is a one-level hierarchy sharing the deepest level's plan,
// with the reference's blocks in the same order, the same combiners, and
// pays verdicts equal to the minority test on every multi-member block.
func TestHierarchyDeepestMatchesReference(t *testing.T) {
	for ti, tree := range randomTrees(t) {
		w := Capacities(tree)
		h := NewHierarchy(tree, w)
		deep := h.Deepest()
		ref := referenceDeepest(tree, w)
		if (deep == nil) != (ref == nil) {
			t.Fatalf("tree %d: Deepest() nil = %v, reference nil = %v", ti, deep == nil, ref == nil)
		}
		if deep == nil {
			continue
		}
		if deep.Depth() != 1 || len(deep.Thresholds) != 1 || len(deep.Parents) != 1 || deep.Parents[0] != nil {
			t.Fatalf("tree %d: Deepest() is not a one-level root hierarchy: %+v", ti, deep)
		}
		plan := deep.Levels[0]
		if plan != h.Levels[h.Depth()-1] {
			t.Fatalf("tree %d: Deepest() does not share the deepest level's plan", ti)
		}
		if len(plan.Blocks) != len(ref.Blocks) {
			t.Fatalf("tree %d: deepest level has %d blocks, reference %d", ti, len(plan.Blocks), len(ref.Blocks))
		}
		for b := range ref.Blocks {
			if len(plan.Blocks[b]) != len(ref.Blocks[b]) {
				t.Fatalf("tree %d block %d: sizes %d vs %d", ti, b, len(plan.Blocks[b]), len(ref.Blocks[b]))
			}
			for j := range ref.Blocks[b] {
				if plan.Blocks[b][j] != ref.Blocks[b][j] {
					t.Fatalf("tree %d block %d: member %d differs", ti, b, j)
				}
			}
			if plan.Combiner[b] != ref.Combiner[b] {
				t.Fatalf("tree %d block %d: combiner %d vs %d", ti, b, plan.Combiner[b], ref.Combiner[b])
			}
		}
		for i := range ref.BlockOf {
			if plan.BlockOf[i] != ref.BlockOf[i] {
				t.Fatalf("tree %d: BlockOf[%d] %d vs %d", ti, i, plan.BlockOf[i], ref.BlockOf[i])
			}
		}
		var total float64
		for _, x := range w {
			total += x
		}
		pays := deep.CombinePays(w)[0]
		for b, members := range ref.Blocks {
			var blockW float64
			for _, i := range members {
				blockW += w[i]
			}
			want := len(members) > 1 && minorityPays(blockW, total)
			if pays[b] != want {
				t.Errorf("tree %d block %d: pays %v, minority test %v", ti, b, pays[b], want)
			}
		}
	}
}

// TestCombinerBlocksShapes checks the single-level combining plan
// (Deepest()) on the canonical fixtures.
func TestCombinerBlocksShapes(t *testing.T) {
	trees := testTrees(t)
	// Uniform star: no weak edge, no plan.
	if deep := NewHierarchy(trees["star"], Uniform(trees["star"].NumCompute())).Deepest(); deep != nil {
		t.Errorf("star: unexpected combining plan %+v", deep.Levels[0])
	}
	// Skewed two-tier: the weak uplink splits the racks into two blocks.
	deep := NewHierarchy(trees["twotier-skew"], Uniform(trees["twotier-skew"].NumCompute())).Deepest()
	if deep == nil {
		t.Fatal("twotier-skew: expected a combining plan")
	}
	plan := deep.Levels[0]
	if len(plan.Blocks) != 2 {
		t.Fatalf("twotier-skew: %d blocks, want 2 (%v)", len(plan.Blocks), plan.Blocks)
	}
	for i, b := range plan.BlockOf {
		want := 0
		if i >= 4 {
			want = 1
		}
		if b != want {
			t.Errorf("compute %d in block %d, want %d", i, b, want)
		}
	}
}

// TestHierarchyShapes pins the canonical deep fixtures: single-band
// topologies collapse to depth ≤ 1, the tapered fat-tree splits into pods
// then racks, and the graded caterpillar into halves then pairs.
func TestHierarchyShapes(t *testing.T) {
	trees := testTrees(t)
	if h := NewHierarchy(trees["star"], Uniform(trees["star"].NumCompute())); h != nil {
		t.Errorf("uniform star: unexpected hierarchy of depth %d", h.Depth())
	}
	h := NewHierarchy(trees["twotier-skew"], Capacities(trees["twotier-skew"]))
	if h == nil || h.Depth() != 1 {
		t.Fatalf("twotier-skew: depth = %v, want 1", h)
	}

	deep := deepTrees(t)
	taper := deep["fattree-taper"]
	h = NewHierarchy(taper, Capacities(taper))
	if h == nil || h.Depth() != 2 {
		t.Fatalf("fattree-taper: depth = %v, want 2", h)
	}
	if len(h.Levels[0].Blocks) != 2 || len(h.Levels[1].Blocks) != 4 {
		t.Fatalf("fattree-taper: blocks %d/%d, want pods 2 then racks 4",
			len(h.Levels[0].Blocks), len(h.Levels[1].Blocks))
	}
	pays := h.CombinePays(Capacities(taper))
	for k := range pays {
		for b, p := range pays[k] {
			if !p {
				t.Errorf("fattree-taper level %d block %d: combining should pay on the symmetric taper", k, b)
			}
		}
	}
	if steps := h.UpSweep(Capacities(taper)); len(steps) != 2 ||
		steps[0].Level != 1 || steps[1].Level != 0 {
		t.Errorf("fattree-taper: up-sweep %v, want racks (level 1) then pods (level 0)", steps)
	}

	grade := deep["caterpillar-grade"]
	h = NewHierarchy(grade, Capacities(grade))
	if h == nil || h.Depth() != 2 {
		t.Fatalf("caterpillar-grade: depth = %v, want 2", h)
	}
	if len(h.Levels[0].Blocks) != 2 || len(h.Levels[1].Blocks) != 4 {
		t.Fatalf("caterpillar-grade: blocks %d/%d, want halves 2 then 4",
			len(h.Levels[0].Blocks), len(h.Levels[1].Blocks))
	}
}

// TestHierarchyMemoized: HierarchyFor and Capacities return the shared
// per-tree instances on repeated calls.
func TestHierarchyMemoized(t *testing.T) {
	tree := deepTrees(t)["fattree-taper"]
	w1, w2 := Capacities(tree), Capacities(tree)
	if &w1[0] != &w2[0] {
		t.Error("Capacities not memoized on the tree")
	}
	h1, h2 := HierarchyFor(tree), HierarchyFor(tree)
	if h1 == nil || h1 != h2 {
		t.Errorf("HierarchyFor not memoized: %p vs %p", h1, h2)
	}
	star, err := topology.UniformStar(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if h := HierarchyFor(star); h != nil {
		t.Errorf("uniform star: HierarchyFor = %v, want nil (memoized nil)", h)
	}
}
