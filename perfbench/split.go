package main

import (
	"fmt"

	"topompc"
	"topompc/internal/core/aggregate"
	"topompc/internal/core/cartesian"
	"topompc/internal/core/graph"
	"topompc/internal/core/intersect"
	"topompc/internal/core/join"
	"topompc/internal/core/multijoin"
	"topompc/internal/core/sorting"
	"topompc/internal/dataset"
	"topompc/internal/lowerbound"
	"topompc/internal/netsim"
	"topompc/internal/topology"
)

// split is one registry task cut at the public entry points its RunTask
// calls, on the same tree and input: the protocol, the check of its
// output against the reference (verify), and the instance lower bound.
// What RunTask does beyond these three — decoding the keys into typed
// rows, loads, summaries — is the registry glue.
type split struct {
	// protocol runs the task's protocol with the given engine options and
	// returns its cost report.
	protocol func(opts []netsim.Option) (*netsim.Report, error)
	// verify checks the last protocol output against the reference. It is
	// nil for tasks whose check is inline registry code, which is glue.
	verify func() error
	// bound computes the lower bound (after verify, which some bounds
	// reuse).
	bound func() float64
}

// splitFor builds the split of a task, converting the keys into the
// protocol's typed input as RunTask does before its protocol runs. It is
// called afresh for every repetition, so the timed parts find their input
// as warm in cache, and the heap as small, as they do inside RunTask.
func splitFor(task string, t *topology.Tree, in topompc.TaskInput) (*split, error) {
	switch task {
	case "intersect":
		r, s := dataset.Placement(in.R), dataset.Placement(in.S)
		loads := loadsOf(t, in.R, in.S)
		var res *intersect.Result
		return &split{
			protocol: func(o []netsim.Option) (rep *netsim.Report, err error) {
				if res, err = intersect.Tree(t, r, s, in.Seed, o...); err == nil {
					rep = res.Report
				}
				return rep, err
			},
			verify: func() error { return intersect.Verify(r, s, res) },
			bound: func() float64 {
				return lowerbound.Intersection(t, loads, int64(r.Total()), int64(s.Total())).Value
			},
		}, nil
	case "cartesian":
		r, s := dataset.Placement(in.R), dataset.Placement(in.S)
		if r.Total() != s.Total() {
			return nil, fmt.Errorf("perfbench: cartesian split needs |R| = |S|")
		}
		loads := loadsOf(t, in.R, in.S)
		var res *cartesian.Result
		return &split{
			protocol: func(o []netsim.Option) (rep *netsim.Report, err error) {
				if res, err = cartesian.Tree(t, r, s, o...); err == nil {
					rep = res.Report
				}
				return rep, err
			},
			verify: func() error { return cartesian.Verify(t, r, s, res) },
			bound:  func() float64 { return lowerbound.Cartesian(t, loads).Value },
		}, nil
	case "sort", "sort-aware":
		data := dataset.Placement(in.Data)
		loads := loadsOf(t, in.Data)
		run := sorting.WTS
		if task == "sort-aware" {
			run = sorting.CapacitySort
		}
		return &split{
			protocol: func(o []netsim.Option) (*netsim.Report, error) {
				res, err := run(t, data, in.Seed, o...)
				if err != nil {
					return nil, err
				}
				return res.Report, nil
			},
			// The registry checks the order and the permutation inline.
			bound: func() float64 { return lowerbound.Sorting(t, loads).Value },
		}, nil
	case "join":
		r, s := joinPlacement(in.R), joinPlacement(in.S)
		var res *join.Result
		return &split{
			protocol: func(o []netsim.Option) (rep *netsim.Report, err error) {
				if res, err = join.Tree(t, r, s, in.Seed, o...); err == nil {
					rep = res.Report
				}
				return rep, err
			},
			verify: func() error {
				if got, want := res.TotalPairs(), join.ReferenceSize(r, s); got != want {
					return fmt.Errorf("join: %d pairs, reference %d", got, want)
				}
				return nil
			},
			// Joins claim no lower bound.
			bound: func() float64 { return 0 },
		}, nil
	case "agg-tree2":
		data := make(aggregate.Placement, len(in.Data))
		for i, frag := range in.Data {
			data[i] = make([]aggregate.Pair, len(frag))
			for j, k := range frag {
				data[i][j] = aggregate.Pair{Group: k, Value: 1}
			}
		}
		return &split{
			protocol: func(o []netsim.Option) (*netsim.Report, error) {
				res, err := aggregate.CombinerTree(t, data, in.Seed, o...)
				if err != nil {
					return nil, err
				}
				return res.Report, nil
			},
			// The registry checks the group totals inline.
			bound: func() float64 { return aggregate.LowerBound(t, data) },
		}, nil
	case "triangle", "starjoin":
		if task == "triangle" && len(in.Rels) != 3 {
			return nil, fmt.Errorf("perfbench: triangle needs 3 relations, got %d", len(in.Rels))
		}
		rels := make([]multijoin.Placement, len(in.Rels))
		for j, rel := range in.Rels {
			rels[j] = tuplePlacement(rel)
		}
		var res *multijoin.Result
		var ref multijoin.RefStats
		sp := &split{
			verify: func() error {
				if task == "triangle" {
					ref = multijoin.TriangleReference(rels[0], rels[1], rels[2])
				} else {
					ref = multijoin.StarReference(rels)
				}
				if res.TotalOutputs() != ref.Count || res.Checksum != ref.Checksum {
					return fmt.Errorf("%s: %d rows (%x), reference %d (%x)", task, res.TotalOutputs(), res.Checksum, ref.Count, ref.Checksum)
				}
				return nil
			},
		}
		if task == "triangle" {
			sp.protocol = func(o []netsim.Option) (rep *netsim.Report, err error) {
				if res, err = multijoin.Triangle(t, rels[0], rels[1], rels[2], in.Seed, o...); err == nil {
					rep = res.Report
				}
				return rep, err
			}
			sp.bound = func() float64 {
				return lowerbound.Multijoin(t, ref.Count, ref.MaxDeg, multijoin.TriangleCutCounts(t, rels[0], rels[1], rels[2])).Value
			}
		} else {
			sp.protocol = func(o []netsim.Option) (rep *netsim.Report, err error) {
				if res, err = multijoin.Star(t, rels, in.Seed, o...); err == nil {
					rep = res.Report
				}
				return rep, err
			}
			sp.bound = func() float64 {
				return lowerbound.Multijoin(t, ref.Count, ref.MaxDeg, multijoin.StarCutCounts(t, rels)).Value
			}
		}
		return sp, nil
	case "cc", "cc-fast":
		run := graph.CC
		if task == "cc-fast" {
			run = graph.CCFast
		}
		edges := make(graph.Placement, len(in.Data))
		for i, frag := range in.Data {
			edges[i] = make([]graph.Edge, len(frag))
			for j, key := range frag {
				e := topompc.DecodeTuple2(key)
				edges[i][j] = graph.Edge{U: e.A, V: e.B}
			}
		}
		var res *graph.Result
		return &split{
			protocol: func(o []netsim.Option) (rep *netsim.Report, err error) {
				if res, err = run(t, edges, in.Seed, o...); err == nil {
					rep = res.Report
				}
				return rep, err
			},
			verify: func() error {
				ref := graph.Reference(edges)
				if res.Components != ref.Count || res.Checksum != ref.Checksum {
					return fmt.Errorf("%s: %d components (%x), reference %d (%x)", task, res.Components, res.Checksum, ref.Count, ref.Checksum)
				}
				return nil
			},
			bound: func() float64 {
				return lowerbound.Connectivity(t, graph.ComponentSpread(t, edges)).Value
			},
		}, nil
	}
	return nil, fmt.Errorf("perfbench: no layer split for task %q", task)
}

// loadsOf is the per-node input size vector the bounds take.
func loadsOf(t *topology.Tree, parts ...[][]uint64) topology.Loads {
	l := make(topology.Loads, t.NumNodes())
	for i, v := range t.ComputeNodes() {
		for _, p := range parts {
			l[v] += int64(len(p[i]))
		}
	}
	return l
}

// joinPlacement reads each key as a (key, payload = key) row, as the
// registry's join task does.
func joinPlacement(frags [][]uint64) join.Placement {
	out := make(join.Placement, len(frags))
	for i, f := range frags {
		out[i] = make([]join.Tuple, len(f))
		for j, k := range f {
			out[i][j] = join.Tuple{Key: k, Payload: k}
		}
	}
	return out
}

// tuplePlacement unpacks the registry's Tuple2 keys.
func tuplePlacement(frags [][]uint64) multijoin.Placement {
	out := make(multijoin.Placement, len(frags))
	for i, f := range frags {
		out[i] = make([]multijoin.Tuple, len(f))
		for j, k := range f {
			tp := topompc.DecodeTuple2(k)
			out[i][j] = multijoin.Tuple{A: tp.A, B: tp.B}
		}
	}
	return out
}
