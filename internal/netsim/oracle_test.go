package netsim

import (
	"slices"
	"testing"

	"topompc/internal/topology"
)

// oracleRound computes one round by brute force, independently of the
// exchange runtime: every transfer walks Tree.Path edge by edge, and
// deliveries land in the order the ops are given. ops must be in
// sender-then-op order (senders in ComputeNodes order), the order in
// which Execute merges deliveries.
//
// A unicast is a multicast to one destination. Duplicate destinations are
// dropped, the union of the paths to the distinct destinations is charged
// once, and the sender counts one send if any destination is external. A
// self-delivery is free but still lands in the inbox.
func oracleRound(t *topology.Tree, ops []fuzzOp) (RoundStats, [][]Message) {
	st := RoundStats{
		EdgeElems:      make([]int64, t.NumEdges()),
		NodeSent:       make([]int64, t.NumNodes()),
		NodeReceived:   make([]int64, t.NumNodes()),
		BottleneckEdge: topology.NoEdge,
	}
	inboxes := make([][]Message, t.NumNodes())
	for _, o := range ops {
		n := int64(len(o.keys))
		dsts := o.dsts
		if dsts == nil {
			dsts = []topology.NodeID{o.to}
		}
		var distinct []topology.NodeID
		for _, d := range dsts {
			if !slices.Contains(distinct, d) {
				distinct = append(distinct, d)
			}
		}
		charged := map[topology.EdgeID]bool{}
		external := false
		for _, d := range distinct {
			for _, ed := range t.Path(nil, o.from, d) {
				charged[ed] = true
			}
			if d != o.from {
				external = true
				st.NodeReceived[d] += n
			}
			st.Messages++
			st.Elements += n
			inboxes[d] = append(inboxes[d], Message{From: o.from, To: d, Tag: o.tag, Keys: o.keys})
		}
		for ed := range charged {
			st.EdgeElems[ed] += n
		}
		if external {
			st.NodeSent[o.from] += n
		}
	}
	for ed, n := range st.EdgeElems {
		if n == 0 {
			continue
		}
		if c := float64(n) / t.Bandwidth(topology.EdgeID(ed)); c > st.Cost {
			st.Cost = c
			st.BottleneckEdge = topology.EdgeID(ed)
		}
	}
	for _, n := range st.NodeReceived {
		st.MaxReceived = max(st.MaxReceived, n)
	}
	return st, inboxes
}

// bySender reorders ops into sender-then-op order.
func bySender(t *topology.Tree, ops []fuzzOp) []fuzzOp {
	out := make([]fuzzOp, 0, len(ops))
	for _, v := range t.ComputeNodes() {
		for _, o := range ops {
			if o.from == v {
				out = append(out, o)
			}
		}
	}
	return out
}

// queueOp queues one op on an outbox.
func queueOp(out *Outbox, o fuzzOp) {
	if o.dsts == nil {
		out.Send(o.to, o.tag, o.keys)
	} else {
		out.Multicast(o.dsts, o.tag, o.keys)
	}
}

// checkOracle requires an executed round to match the oracle on ops
// (given in sender-then-op order): every statistic, and every node's
// inbox contents and order.
func checkOracle(tb testing.TB, e *Engine, got RoundStats, ops []fuzzOp) {
	tb.Helper()
	want, inboxes := oracleRound(e.Tree(), ops)
	statsEqual(tb, got, want)
	for v, msgs := range inboxes {
		in := e.Inbox(topology.NodeID(v))
		if in.Len() != len(msgs) {
			tb.Fatalf("inbox of %d: %d messages, want %d", v, in.Len(), len(msgs))
		}
		for i, m := range msgs {
			g := in.At(i)
			if g.From != m.From || g.To != m.To || g.Tag != m.Tag || !slices.Equal(g.Keys, m.Keys) {
				tb.Fatalf("inbox of %d message %d: got %+v, want %+v", v, i, g, m)
			}
		}
	}
}
