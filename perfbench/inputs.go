package main

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"topompc"
)

// The benchmark generates its own inputs from the workload seed, so a
// change to the program's generators cannot change what the benchmark
// measures. The shapes follow the registry's command-line tools: pair
// tasks get |R| = n/4 and |S| = 3n/4 (cartesian n/2 each) with a 10%
// overlap, sorts get n distinct keys, aggregation draws n keys from an
// n/8 pool, the triangle gets three n/3-tuple relations over a
// round(m^(2/3)) domain, the star join four n/4-tuple relations sharing
// an m/4 domain, and connectivity n distinct edges over n/3 vertices.

// mix is the splitmix64 finalizer, a bijection on uint64.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// distinct returns n pairwise-distinct pseudo-random keys.
func distinct(rng *rand.Rand, n int) []uint64 {
	base := rng.Uint64()
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = mix(base + uint64(i))
	}
	return keys
}

// layout is the initial data distribution over the compute nodes.
type layout int

const (
	uniform layout = iota
	// zipf gives the node at position i from the end a 1/(i+1)^1.2 share,
	// so the heaviest fragments sit on the last nodes — behind the
	// weakest uplink of the two-tier fixture. The order is fixed, not
	// drawn from the seed, so the model cost varies only with the keys.
	zipf
)

func (l layout) String() string {
	if l == zipf {
		return "zipf"
	}
	return "uniform"
}

// split deals keys over p nodes in contiguous runs whose lengths follow
// the layout, by largest-remainder rounding.
func (l layout) split(keys []uint64, p int) [][]uint64 {
	w := make([]float64, p)
	for i := range w {
		w[i] = 1
		if l == zipf {
			w[i] = 1 / math.Pow(float64(p-i), 1.2)
		}
	}
	var total float64
	for _, x := range w {
		total += x
	}
	counts := make([]int, p)
	rem := make([]float64, p)
	assigned := 0
	for i, x := range w {
		exact := float64(len(keys)) * x / total
		counts[i] = int(exact)
		rem[i] = exact - float64(counts[i])
		assigned += counts[i]
	}
	// The leftover keys go to the largest remainders, ties to the lower
	// node index.
	order := make([]int, p)
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(rem[b], rem[a]) })
	for _, i := range order[:len(keys)-assigned] {
		counts[i]++
	}
	out := make([][]uint64, p)
	off := 0
	for i, c := range counts {
		out[i] = keys[off : off+c : off+c]
		off += c
	}
	return out
}

// makeInput generates the TaskInput of one task of size n over p nodes.
func makeInput(task topompc.Task, rng *rand.Rand, l layout, p, n int, seed uint64) (topompc.TaskInput, error) {
	in := topompc.TaskInput{Seed: seed}
	if n < 8 || p < 1 {
		return in, fmt.Errorf("perfbench: task %s needs n >= 8 and p >= 1, got n=%d p=%d", task.Name, n, p)
	}
	switch task.Kind {
	case topompc.TaskPair:
		r, s := n/4, 3*n/4
		if task.WantsEqualPair {
			r, s = n/2, n/2
		}
		overlap := r / 10
		all := distinct(rng, r+s-overlap)
		rk := append([]uint64(nil), all[:r]...)
		sk := append(append([]uint64(nil), all[:overlap]...), all[r:]...)
		rng.Shuffle(len(rk), func(i, j int) { rk[i], rk[j] = rk[j], rk[i] })
		rng.Shuffle(len(sk), func(i, j int) { sk[i], sk[j] = sk[j], sk[i] })
		in.R, in.S = l.split(rk, p), l.split(sk, p)
	case topompc.TaskSingle:
		keys := distinct(rng, n)
		if task.WantsDuplicates {
			pool := distinct(rng, n/8)
			for i := range keys {
				keys[i] = pool[rng.Intn(len(pool))]
			}
		}
		in.Data = l.split(keys, p)
	case topompc.TaskMulti:
		k := task.NumRelations
		m := n / k
		dom := m / 4
		if task.Cyclic {
			dom = int(math.Round(math.Pow(float64(m), 2.0/3.0)))
		}
		in.Rels = make([][][]uint64, k)
		for j := range in.Rels {
			keys := make([]uint64, m)
			for i := range keys {
				a := uint64(rng.Intn(dom))
				b := uint64(rng.Uint32())
				if task.Cyclic {
					b = uint64(rng.Intn(dom))
				}
				keys[i] = topompc.EncodeTuple2(topompc.Tuple2{A: a, B: b})
			}
			in.Rels[j] = l.split(keys, p)
		}
	case topompc.TaskGraph:
		verts := uint64(n / 3)
		seen := make(map[uint64]struct{}, n)
		edges := make([]uint64, 0, n)
		for len(edges) < n {
			u, v := rng.Uint64()%verts, rng.Uint64()%verts
			if u == v {
				continue
			}
			if u > v {
				u, v = v, u
			}
			key := topompc.EncodeTuple2(topompc.Tuple2{A: u, B: v})
			if _, dup := seen[key]; dup {
				continue
			}
			seen[key] = struct{}{}
			edges = append(edges, key)
		}
		in.Data = l.split(edges, p)
	default:
		return in, fmt.Errorf("perfbench: task %s has unknown kind %d", task.Name, task.Kind)
	}
	return in, nil
}

// inputElements counts the keys of a TaskInput.
func inputElements(in topompc.TaskInput) int64 {
	var n int64
	count := func(frags [][]uint64) {
		for _, f := range frags {
			n += int64(len(f))
		}
	}
	count(in.R)
	count(in.S)
	count(in.Data)
	for _, rel := range in.Rels {
		count(rel)
	}
	return n
}
