package place

// BlockPlan is a per-cut combining plan: blocks partition the compute
// indices, and each block routes its exchanges through one combiner member
// before they cross the block boundary, so a duplicate-heavy payload
// crosses each weak cut once per block instead of once per node.
type BlockPlan struct {
	BlockOf  []int   // compute index -> block
	Combiner []int   // block -> compute index of the block's combiner
	Blocks   [][]int // block -> member compute indices
}

// minorityPays is the combining-pays predicate of Hierarchy.CombinePays:
// a block holding at most half of the total weight homes most of its
// payloads outside itself, so a pre-merge round saves on its boundary cut. Symmetric topologies split into exactly-half
// blocks whose weight sums differ from total/2 only by float rounding;
// the tolerance keeps the boundary case paying on both sides of the
// rounding.
func minorityPays(blockW, total float64) bool {
	return 2*blockW <= total*(1+1e-9)
}
