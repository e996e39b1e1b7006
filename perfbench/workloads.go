package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"topompc"
	"topompc/internal/topology"
)

// workload is one task mix on one network. A job runs every task once
// through the public path: the spec bytes go through the constructor,
// then each task runs via Cluster.RunTask on its generated input.
type workload struct {
	name string
	// general marks a general-network spec (ParseGraphCluster, compressed
	// to its Gomory–Hu cut tree); otherwise the spec is a tree
	// (ParseCluster).
	general bool
	spec    topology.Spec
	layout  layout
	n       int
	tasks   []string
}

// scale sizes a workload: full is the benchmark, small the tests' smoke.
type scale struct {
	analyticsN   int
	caterpillarS int // spine links; compute nodes = spines + 1
	graphN       int
	clos         [3]int // spines, leaves, hosts per leaf
	closN        int
}

var (
	fullScale  = scale{analyticsN: 100_000, caterpillarS: 50_000, graphN: 500_000, clos: [3]int{32, 128, 16}, closN: 1_000_000}
	smallScale = scale{analyticsN: 2_000, caterpillarS: 200, graphN: 6_000, clos: [3]int{4, 8, 4}, closN: 8_000}
)

// workloadNames lists the workloads in the order the doc describes them.
var workloadNames = []string{"analytics-twotier", "graph-caterpillar", "shuffle-clos"}

func newWorkload(name string, sc scale) (*workload, error) {
	switch name {
	case "analytics-twotier":
		// The oracles dominate: 12 nodes and at most 4 rounds per task
		// leave the wire plane little to do, and the zipf start is the
		// paper's optimality axis.
		return &workload{
			name: name,
			spec: twoTierSpec([]int{4, 4, 4}, []float64{4, 2, 1}, 8), layout: zipf, n: sc.analyticsN,
			tasks: []string{"intersect", "cartesian", "sort", "sort-aware", "join", "agg-tree2", "triangle", "starjoin"},
		}, nil
	case "graph-caterpillar":
		// Protocol compute, internal/par and the wire plane dominate: tens
		// of sparse rounds over 5·10⁴ senders.
		return &workload{
			name: name,
			spec: caterpillarSpec(sc.caterpillarS), layout: uniform, n: sc.graphN,
			tasks: []string{"cc", "cc-fast"},
		}, nil
	case "shuffle-clos":
		// A general network: set-up builds a real Gomory–Hu cut tree, and
		// the wire plane carries dense few-round shuffles over 2048
		// senders. agg-tree2 is left out: its lower bound alone takes
		// about a minute on this fabric (see README.md).
		c := sc.clos
		return &workload{
			name: name,
			spec: closSpec(c[0], c[1], c[2], 4, 10), general: true, layout: uniform, n: sc.closN,
			tasks: []string{"intersect", "sort", "sort-aware", "join"},
		}, nil
	}
	return nil, fmt.Errorf("perfbench: unknown workload %q (have %v)", name, workloadNames)
}

// specBytes renders the workload's network as the JSON spec the public
// constructors parse.
func (w *workload) specBytes() ([]byte, error) { return json.Marshal(w.spec) }

// parse is the public constructor the workload's spec goes through.
func (w *workload) parse(spec []byte) (*topompc.Cluster, error) {
	if w.general {
		return topompc.ParseGraphCluster(spec)
	}
	return topompc.ParseCluster(spec)
}

// inputs generates every task's input from the workload seed.
func (w *workload) inputs(seed uint64, p int) ([]topompc.TaskInput, error) {
	out := make([]topompc.TaskInput, len(w.tasks))
	for i, name := range w.tasks {
		task, ok := topompc.LookupTask(name)
		if !ok {
			return nil, fmt.Errorf("perfbench: workload %s names unknown task %q", w.name, name)
		}
		taskSeed := mix(seed*uint64(len(w.tasks)) + uint64(i))
		in, err := makeInput(task, rand.New(rand.NewSource(int64(taskSeed))), w.layout, p, w.n, taskSeed)
		if err != nil {
			return nil, err
		}
		out[i] = in
	}
	return out, nil
}

// specBuilder accumulates a topology.Spec by node name.
type specBuilder struct{ s topology.Spec }

func (b *specBuilder) node(name string, compute bool) int {
	b.s.Nodes = append(b.s.Nodes, topology.SpecNode{Name: name, Compute: compute})
	return len(b.s.Nodes) - 1
}

func (b *specBuilder) link(a, c int, bw float64) {
	b.s.Edges = append(b.s.Edges, topology.SpecEdge{A: a, B: c, BW: bw})
}

// twoTierSpec is a spine with one rack router per entry of racks, each
// behind its uplink, and leaf-bandwidth links to the rack's hosts.
func twoTierSpec(racks []int, uplinks []float64, leaf float64) topology.Spec {
	var b specBuilder
	spine := b.node("spine", false)
	host := 0
	for i, size := range racks {
		r := b.node(fmt.Sprintf("rack%d", i+1), false)
		b.link(r, spine, uplinks[i])
		for j := 0; j < size; j++ {
			host++
			b.link(b.node(fmt.Sprintf("v%d", host), true), r, leaf)
		}
	}
	return b.s
}

// caterpillarSpec is a router path of spines+1 routers with one compute
// leg (bandwidth 4) each; spine link i has bandwidth 1 + i mod 7, a deep
// banded gradient.
func caterpillarSpec(spines int) topology.Spec {
	var b specBuilder
	prev := b.node("w1", false)
	b.link(b.node("v1", true), prev, 4)
	for i := 0; i < spines; i++ {
		r := b.node(fmt.Sprintf("w%d", i+2), false)
		b.link(r, prev, float64(1+i%7))
		b.link(b.node(fmt.Sprintf("v%d", i+2), true), r, 4)
		prev = r
	}
	return b.s
}

// closSpec is a leaf–spine fabric: every leaf router links to every spine
// router and carries perLeaf hosts.
func closSpec(spines, leaves, perLeaf int, spineBW, leafBW float64) topology.Spec {
	var b specBuilder
	sp := make([]int, spines)
	for i := range sp {
		sp[i] = b.node(fmt.Sprintf("spine%d", i+1), false)
	}
	host := 0
	for l := 0; l < leaves; l++ {
		lr := b.node(fmt.Sprintf("leaf%d", l+1), false)
		for _, s := range sp {
			b.link(lr, s, spineBW)
		}
		for j := 0; j < perLeaf; j++ {
			host++
			b.link(b.node(fmt.Sprintf("v%d", host), true), lr, leafBW)
		}
	}
	return b.s
}
