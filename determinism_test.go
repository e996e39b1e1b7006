package topompc_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"topompc"
	"topompc/internal/netsim"
)

// Determinism harness: the full Report of every registry task — per-edge
// traffic, per-node sent/received, float-exact round costs, message and
// element counts — must be byte-identical between a serial run (Workers=1)
// and a parallel run (Workers=8). The netsim fuzz equivalence tests hold
// the Exchange runtime to a naive path-walk oracle that lives in a test
// file; this harness instead catches future races or order-dependent
// accounting that only differ across worker counts.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	for _, topo := range []string{"twotier-skew", "caterpillar", "caterpillar-grade", "ring-of-racks"} {
		topo := topo
		t.Run(topo, func(t *testing.T) {
			for _, spec := range topompc.Tasks() {
				spec := spec
				t.Run(spec.Name, func(t *testing.T) {
					run := func(workers int) (string, string) {
						c := fixtureCluster(t, topo)
						c.SetExecOptions(topompc.ExecOptions{Workers: workers})
						in := fixtureInput(t, spec, c, topo, "zipf", 2000)
						res, err := c.RunTask(spec.Name, in)
						if err != nil {
							t.Fatalf("workers=%d: %v", workers, err)
						}
						return res.Summary, serializeReport(res.Report)
					}
					sum1, rep1 := run(1)
					sum8, rep8 := run(8)
					if sum1 != sum8 {
						t.Fatalf("summary diverged:\n  workers=1: %s\n  workers=8: %s", sum1, sum8)
					}
					if rep1 != rep8 {
						t.Fatalf("report diverged between workers=1 and workers=8:\n%s", firstDiff(rep1, rep8))
					}
				})
			}
		})
	}
}

// serializeReport renders every statistic of a report bit-exactly (float
// costs via IEEE bits, all per-edge and per-node arrays).
func serializeReport(r *netsim.Report) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "rounds=%d\n", r.NumRounds())
	for _, rd := range r.Rounds {
		fmt.Fprintf(&sb, "round %d cost=%x msgs=%d elems=%d bottleneck=%d\n",
			rd.Index, math.Float64bits(rd.Cost), rd.Messages, rd.Elements, rd.BottleneckEdge)
		fmt.Fprintf(&sb, "  edges=%v\n  sent=%v\n  recv=%v\n", rd.EdgeElems, rd.NodeSent, rd.NodeReceived)
	}
	return sb.String()
}

func firstDiff(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			return fmt.Sprintf("line %d:\n  workers=1: %s\n  workers=8: %s", i+1, la[i], lb[i])
		}
	}
	return fmt.Sprintf("length %d vs %d lines", len(la), len(lb))
}
