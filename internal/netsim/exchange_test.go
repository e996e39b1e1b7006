package netsim

import (
	"math/rand"
	"reflect"
	"testing"

	"topompc/internal/topology"
)

// randomOpTree builds a random all-compute tree for equivalence fuzzing.
func randomOpTree(tb testing.TB, rng *rand.Rand, n int) *topology.Tree {
	b := topology.NewBuilder()
	ids := make([]topology.NodeID, n)
	ids[0] = b.Compute("")
	for i := 1; i < n; i++ {
		ids[i] = b.Compute("")
		b.Link(ids[i], ids[rng.Intn(i)], 1+float64(rng.Intn(4)))
	}
	t, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return t
}

// fuzzOp is one transfer, replayed on an exchange and on the oracle.
type fuzzOp struct {
	from topology.NodeID
	to   topology.NodeID
	dsts []topology.NodeID // nil for unicast
	tag  Tag
	keys []uint64
}

func randomOps(rng *rand.Rand, t *topology.Tree, count int) []fuzzOp {
	vs := t.ComputeNodes()
	ops := make([]fuzzOp, 0, count)
	for i := 0; i < count; i++ {
		from := vs[rng.Intn(len(vs))]
		keys := make([]uint64, rng.Intn(5)) // zero-length payloads included
		for k := range keys {
			keys[k] = rng.Uint64()
		}
		if rng.Intn(2) == 0 {
			ops = append(ops, fuzzOp{from: from, to: vs[rng.Intn(len(vs))], tag: Tag(rng.Intn(3)), keys: keys})
		} else {
			dsts := make([]topology.NodeID, rng.Intn(4)) // may be empty, contain dups and self
			for d := range dsts {
				dsts[d] = vs[rng.Intn(len(vs))]
			}
			ops = append(ops, fuzzOp{from: from, dsts: dsts, tag: Tag(rng.Intn(3)), keys: keys})
		}
	}
	return ops
}

// statsEqual compares every field of two round stats.
func statsEqual(tb testing.TB, got, want RoundStats) {
	tb.Helper()
	if !reflect.DeepEqual(got.EdgeElems, want.EdgeElems) {
		tb.Fatalf("EdgeElems: got %v, want %v", got.EdgeElems, want.EdgeElems)
	}
	if !reflect.DeepEqual(got.NodeSent, want.NodeSent) {
		tb.Fatalf("NodeSent: got %v, want %v", got.NodeSent, want.NodeSent)
	}
	if !reflect.DeepEqual(got.NodeReceived, want.NodeReceived) {
		tb.Fatalf("NodeReceived: got %v, want %v", got.NodeReceived, want.NodeReceived)
	}
	if got.Cost != want.Cost {
		tb.Fatalf("Cost: got %v, want %v", got.Cost, want.Cost)
	}
	if got.BottleneckEdge != want.BottleneckEdge {
		tb.Fatalf("BottleneckEdge: got %v, want %v", got.BottleneckEdge, want.BottleneckEdge)
	}
	if got.MaxReceived != want.MaxReceived {
		tb.Fatalf("MaxReceived: got %d, want %d", got.MaxReceived, want.MaxReceived)
	}
	if got.Messages != want.Messages {
		tb.Fatalf("Messages: got %d, want %d", got.Messages, want.Messages)
	}
	if got.Elements != want.Elements {
		tb.Fatalf("Elements: got %d, want %d", got.Elements, want.Elements)
	}
}

// TestExchangeMatchesOracle executes random op batches — duplicate, self
// and empty destination lists and zero-length payloads included — and
// requires the path-walk oracle's statistics and inboxes (contents and
// order).
func TestExchangeMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		tr := randomOpTree(t, rng, 2+rng.Intn(40))
		ops := randomOps(rng, tr, rng.Intn(120))

		// The Exchange merges deliveries in sender order, so the oracle gets
		// the ops grouped by sender; edge and node sums do not depend on the
		// grouping, so they also match the ops in generation order.
		ordered := bySender(tr, ops)
		e := NewEngine(tr)
		x := e.Exchange()
		for _, o := range ordered {
			queueOp(x.Out(o.from), o)
		}
		got := x.Execute()
		checkOracle(t, e, got, ordered)
		unordered, _ := oracleRound(tr, ops)
		statsEqual(t, got, unordered)
	}
}

// TestExchangePlanMatchesRoundParallel runs the canonical protocol shape —
// per-node planning under Plan with several workers — and checks it
// against the oracle.
func TestExchangePlanMatchesRoundParallel(t *testing.T) {
	tr, err := topology.TwoTier([]int{3, 3, 3}, []float64{4, 2, 1}, 8)
	if err != nil {
		t.Fatal(err)
	}
	vs := tr.ComputeNodes()
	opsOf := func(v topology.NodeID) []fuzzOp {
		i := int(v)
		return []fuzzOp{
			{from: v, to: vs[(i+1)%len(vs)], tag: TagData, keys: []uint64{uint64(i), uint64(i * i)}},
			{from: v, dsts: []topology.NodeID{vs[0], vs[len(vs)-1], vs[0]}, tag: TagR, keys: []uint64{uint64(i)}},
			{from: v, to: v, tag: TagS, keys: []uint64{7}}, // self-send
		}
	}
	var ops []fuzzOp
	for _, v := range vs {
		ops = append(ops, opsOf(v)...)
	}
	for _, workers := range []int{1, 4} {
		e := NewEngine(tr, WithWorkers(workers))
		x := e.Exchange()
		x.Plan(func(v topology.NodeID, out *Outbox) {
			for _, o := range opsOf(v) {
				queueOp(out, o)
			}
		})
		checkOracle(t, e, x.Execute(), ops)
	}
}

// TestExchangeWorkerCounts runs the same plan under different worker
// budgets; sharded accounting must not change any statistic.
func TestExchangeWorkerCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	tr := randomOpTree(t, rng, 33)
	ops := randomOps(rng, tr, 300)
	run := func(workers int) RoundStats {
		e := NewEngine(tr, WithWorkers(workers))
		x := e.Exchange()
		for _, o := range ops {
			queueOp(x.Out(o.from), o)
		}
		return x.Execute()
	}
	want := run(1)
	for _, w := range []int{2, 3, 8, 64} {
		statsEqual(t, run(w), want)
	}
}

// TestExchangeSelfSend: self-sends are cost-free but still delivered.
func TestExchangeSelfSend(t *testing.T) {
	tr, err := topology.Star([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	vs := tr.ComputeNodes()
	e := NewEngine(tr)
	x := e.Exchange()
	x.Out(vs[0]).Send(vs[0], TagData, []uint64{1, 2, 3})
	stats := x.Execute()
	if stats.Cost != 0 {
		t.Fatalf("self-send cost = %v, want 0", stats.Cost)
	}
	if stats.NodeSent[vs[0]] != 0 || stats.NodeReceived[vs[0]] != 0 {
		t.Fatalf("self-send touched sent/received: %v %v", stats.NodeSent, stats.NodeReceived)
	}
	in := e.Inbox(vs[0]).Messages()
	if len(in) != 1 || len(in[0].Keys) != 3 {
		t.Fatalf("self-send not delivered: %v", in)
	}
}

// TestExchangeMulticastDuplicates: duplicate destinations are delivered
// once and charged once.
func TestExchangeMulticastDuplicates(t *testing.T) {
	tr, err := topology.Star([]float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	vs := tr.ComputeNodes()
	e := NewEngine(tr)
	x := e.Exchange()
	x.Out(vs[0]).Multicast([]topology.NodeID{vs[1], vs[1], vs[1], vs[2]}, TagData, []uint64{9, 9})
	stats := x.Execute()
	if got := e.Inbox(vs[1]).Len(); got != 1 {
		t.Fatalf("duplicate destination delivered %d times, want 1", got)
	}
	if stats.Messages != 2 {
		t.Fatalf("messages = %d, want 2", stats.Messages)
	}
	// Steiner accounting: each of the three star links carries the payload
	// once (sender uplink, two receiver downlinks).
	for ed, n := range stats.EdgeElems {
		if n != 2 {
			t.Fatalf("edge %d carries %d, want 2", ed, n)
		}
	}
}

// TestExchangeInboxRecycling: inboxes swap across rounds and are not
// retained.
func TestExchangeInboxRecycling(t *testing.T) {
	tr, err := topology.Star([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	vs := tr.ComputeNodes()
	e := NewEngine(tr)

	x := e.Exchange()
	x.Out(vs[0]).Send(vs[1], TagData, []uint64{1})
	x.Execute()
	if e.Inbox(vs[1]).Len() != 1 {
		t.Fatalf("round 1 delivery missing")
	}

	x = e.Exchange()
	x.Out(vs[1]).Send(vs[0], TagData, []uint64{2})
	x.Execute()
	if e.Inbox(vs[1]).Len() != 0 {
		t.Fatalf("round 1 inbox leaked into round 2: %v", e.Inbox(vs[1]).Messages())
	}
	if e.Inbox(vs[0]).Len() != 1 || e.Inbox(vs[0]).At(0).Keys[0] != 2 {
		t.Fatalf("round 2 delivery wrong: %v", e.Inbox(vs[0]).Messages())
	}
	if e.NumRounds() != 2 {
		t.Fatalf("NumRounds = %d, want 2", e.NumRounds())
	}
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", name)
		}
	}()
	fn()
}

// TestExchangeMisusePanics: the exchange lifecycle is enforced.
func TestExchangeMisusePanics(t *testing.T) {
	tr, err := topology.Star([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	vs := tr.ComputeNodes()

	mustPanic(t, "Exchange while exchange open", func() {
		e := NewEngine(tr)
		e.Exchange()
		e.Exchange()
	})
	mustPanic(t, "Execute twice", func() {
		x := NewEngine(tr).Exchange()
		x.Execute()
		x.Execute()
	})
	mustPanic(t, "Plan after Execute", func() {
		x := NewEngine(tr).Exchange()
		x.Execute()
		x.Plan(func(topology.NodeID, *Outbox) {})
	})
	mustPanic(t, "Out after Execute", func() {
		x := NewEngine(tr).Exchange()
		x.Execute()
		x.Out(vs[0])
	})
	mustPanic(t, "router sender", func() {
		x := NewEngine(tr).Exchange()
		x.Out(tr.Root())
	})
	mustPanic(t, "router receiver", func() {
		x := NewEngine(tr).Exchange()
		x.Out(vs[0]).Send(tr.Root(), TagData, nil)
		x.Execute()
	})
	mustPanic(t, "router multicast receiver", func() {
		x := NewEngine(tr).Exchange()
		x.Out(vs[0]).Multicast([]topology.NodeID{tr.Root()}, TagData, nil)
		x.Execute()
	})
}

// TestPlanPanicReraisedOnCaller: a panic in a Plan callback on a worker
// goroutine is re-raised on the goroutine that called Plan once every
// worker has returned, and leaves Plan usable afterwards.
func TestPlanPanicReraisedOnCaller(t *testing.T) {
	tr, err := topology.UniformStar(16, 1)
	if err != nil {
		t.Fatal(err)
	}
	vs := tr.ComputeNodes()
	x := NewEngine(tr, WithWorkers(4)).Exchange()
	got := func() (p any) {
		defer func() { p = recover() }()
		x.Plan(func(v topology.NodeID, out *Outbox) {
			if v == vs[5] {
				panic("plan failed")
			}
		})
		return nil
	}()
	if got != "plan failed" {
		t.Fatalf("recovered %v, want the callback's panic value", got)
	}
	x.Plan(func(v topology.NodeID, out *Outbox) {
		out.Send(vs[0], TagData, []uint64{uint64(v)})
	})
	if st := x.Execute(); st.Messages != len(vs) {
		t.Fatalf("messages after recovered panic = %d, want %d", st.Messages, len(vs))
	}
}
