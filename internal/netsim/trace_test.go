package netsim

import (
	"math"
	"testing"

	"topompc/internal/obs"
	"topompc/internal/topology"
)

// roundEvents filters a trace down to the engine's committed-round spans.
func roundEvents(tc *obs.Trace) []obs.Event {
	var out []obs.Event
	for _, e := range tc.Events() {
		if e.Cat == "netsim.round" {
			out = append(out, e)
		}
	}
	return out
}

// TestExchangeTraceRoundsSumToTotalCost runs a traced exchange workload and
// checks the recorder's core invariant: one complete event per round, in
// round order, whose cost args sum exactly to Report.TotalCost.
func TestExchangeTraceRoundsSumToTotalCost(t *testing.T) {
	tr := benchCaterpillar(t)
	batch := benchTransferBatch(tr, 2048)

	for _, workers := range []int{1, 8} {
		tc := obs.NewTrace()
		e := NewEngine(tr, WithWorkers(workers), WithLeanStats(), WithTracer(tc))
		for r := 0; r < 6; r++ {
			x := e.Exchange()
			planBatch(x, batch[r*128:])
			if workers > 1 {
				x.ExecuteAsync()
			} else {
				x.Execute()
			}
		}
		rep := e.Report()

		evs := roundEvents(tc)
		if len(evs) != len(rep.Rounds) {
			t.Fatalf("workers=%d: %d round events, want %d", workers, len(evs), len(rep.Rounds))
		}
		sum := 0.0
		for i, ev := range evs {
			if got := ev.Args["round"].(int); got != i {
				t.Fatalf("workers=%d: event %d carries round index %v", workers, i, ev.Args["round"])
			}
			cost := ev.Args["cost"].(float64)
			if cost != rep.Rounds[i].Cost {
				t.Fatalf("workers=%d round %d: traced cost %v, reported %v", workers, i, cost, rep.Rounds[i].Cost)
			}
			sum += cost
		}
		if total := rep.TotalCost(); sum != total {
			t.Fatalf("workers=%d: traced costs sum to %v, TotalCost %v", workers, sum, total)
		}
	}
}

// TestRoundAPITraceAndBottleneck executes one synchronous exchange round
// with tracing and metrics attached and checks the bottleneck-link
// annotation and the metrics snapshot.
func TestRoundAPITraceAndBottleneck(t *testing.T) {
	tr, err := topology.Star([]float64{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	tc := obs.NewTrace()
	reg := obs.NewRegistry()
	e := NewEngine(tr, WithTracer(tc), WithMetrics(reg))
	vs := tr.ComputeNodes()

	x := e.Exchange()
	x.Out(vs[0]).Send(vs[1], TagData, []uint64{1, 2, 3})
	st := x.Execute()

	evs := roundEvents(tc)
	if len(evs) != 1 {
		t.Fatalf("%d round events, want 1", len(evs))
	}
	ev := evs[0]
	if ev.Args["cost"].(float64) != st.Cost {
		t.Fatalf("traced cost %v, want %v", ev.Args["cost"], st.Cost)
	}
	if st.BottleneckEdge == topology.NoEdge {
		t.Fatal("expected a bottleneck edge on a cross-node send")
	}
	if got := ev.Args["bottleneck_edge"].(int); got != int(st.BottleneckEdge) {
		t.Fatalf("traced bottleneck edge %v, want %d", got, st.BottleneckEdge)
	}
	if link, ok := ev.Args["bottleneck_link"].(string); !ok || link == "" {
		t.Fatalf("bottleneck_link missing or empty: %v", ev.Args["bottleneck_link"])
	}
	if ev.Dur < 0 {
		t.Fatalf("round span duration negative: %v", ev.Dur)
	}

	snap := reg.Snapshot()
	if snap["netsim.rounds"] != 1 || snap["netsim.elements"] != 3 {
		t.Fatalf("metrics snapshot wrong: %v", snap)
	}
	if math.Abs(snap["netsim.round_cost.sum"]-st.Cost) > 1e-12 {
		t.Fatalf("round_cost.sum = %v, want %v", snap["netsim.round_cost.sum"], st.Cost)
	}
}

// TestTracedRunLeavesStatsIdentical runs the same workload with and without
// the recorder attached and requires bit-identical round statistics — the
// recorder observes, never perturbs.
func TestTracedRunLeavesStatsIdentical(t *testing.T) {
	tr := benchCaterpillar(t)
	batch := benchTransferBatch(tr, 1024)

	run := func(opts ...Option) *Report {
		e := NewEngine(tr, append([]Option{WithWorkers(2)}, opts...)...)
		for r := 0; r < 4; r++ {
			x := e.Exchange()
			planBatch(x, batch[r*64:])
			x.ExecuteAsync()
		}
		return e.Report()
	}
	plain := run()
	traced := run(WithTracer(obs.NewTrace()), WithMetrics(obs.NewRegistry()))

	if len(plain.Rounds) != len(traced.Rounds) {
		t.Fatalf("rounds: plain %d, traced %d", len(plain.Rounds), len(traced.Rounds))
	}
	for i := range plain.Rounds {
		statsEqual(t, traced.Rounds[i], plain.Rounds[i])
	}
}
