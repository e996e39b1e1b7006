package netsim

import (
	"testing"

	"topompc/internal/topology"
)

func TestNodeTrafficAccounting(t *testing.T) {
	tr, err := topology.Star([]float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	vs := tr.ComputeNodes()
	x := NewEngine(tr).Exchange()
	x.Out(vs[0]).Send(vs[1], TagData, make([]uint64, 10))
	x.Out(vs[0]).Send(vs[0], TagData, make([]uint64, 99)) // self-send: free
	x.Out(vs[2]).Multicast([]topology.NodeID{vs[0], vs[1]}, TagData, make([]uint64, 5))
	st := x.Execute()

	if got := st.NodeSent[vs[0]]; got != 10 {
		t.Errorf("v1 sent %d, want 10 (self-send free)", got)
	}
	if got := st.NodeSent[vs[2]]; got != 5 {
		t.Errorf("v3 sent %d, want 5 (multicast emits one copy)", got)
	}
	if got := st.NodeReceived[vs[1]]; got != 15 {
		t.Errorf("v2 received %d, want 15", got)
	}
	if got := st.NodeReceived[vs[0]]; got != 5 {
		t.Errorf("v1 received %d, want 5 (self-send excluded)", got)
	}
}

func TestMPCCost(t *testing.T) {
	tr, err := topology.Star([]float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	vs := tr.ComputeNodes()
	e := NewEngine(tr)
	x := e.Exchange()
	x.Out(vs[0]).Send(vs[1], TagData, make([]uint64, 10))
	x.Out(vs[2]).Send(vs[1], TagData, make([]uint64, 7))
	x.Execute()
	x = e.Exchange()
	x.Out(vs[1]).Send(vs[0], TagData, make([]uint64, 3))
	x.Execute()
	rep := e.Report()
	// Round 1 max received = 17 (node v2), round 2 max = 3.
	if got := rep.MPCCost(); got != 20 {
		t.Errorf("MPC cost = %v, want 20", got)
	}
	sent, recv := rep.NodeTotals()
	if sent[vs[0]] != 10 || sent[vs[1]] != 3 || sent[vs[2]] != 7 {
		t.Errorf("sent totals = %v", sent)
	}
	if recv[vs[1]] != 17 || recv[vs[0]] != 3 {
		t.Errorf("received totals = %v", recv)
	}
}

func TestMPCCostEmptyReport(t *testing.T) {
	tr, _ := topology.UniformStar(2, 1)
	rep := NewEngine(tr).Report()
	if rep.MPCCost() != 0 {
		t.Error("empty report should have zero MPC cost")
	}
	s, r := rep.NodeTotals()
	if s != nil || r != nil {
		t.Error("empty report should have nil totals")
	}
}

func TestMulticastDuplicateDestinations(t *testing.T) {
	tr, err := topology.Star([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	vs := tr.ComputeNodes()
	e := NewEngine(tr)
	x := e.Exchange()
	x.Out(vs[0]).Multicast([]topology.NodeID{vs[1], vs[1], vs[1]}, TagData, make([]uint64, 4))
	st := x.Execute()
	if got := e.Inbox(vs[1]).Len(); got != 1 {
		t.Errorf("duplicate destinations delivered %d times, want 1", got)
	}
	if st.Elements != 4 {
		t.Errorf("elements = %d, want 4", st.Elements)
	}
}

func TestEdgeTable(t *testing.T) {
	tr, err := topology.Star([]float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	vs := tr.ComputeNodes()
	e := NewEngine(tr)
	x := e.Exchange()
	x.Out(vs[0]).Send(vs[1], TagData, make([]uint64, 10))
	x.Execute()
	table := e.Report().EdgeTable()
	if table == "" || table == "(no rounds)\n" {
		t.Fatalf("edge table missing: %q", table)
	}
	empty := NewEngine(tr).Report().EdgeTable()
	if empty != "(no rounds)\n" {
		t.Errorf("empty report table = %q", empty)
	}
}
