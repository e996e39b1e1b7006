package graph

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"topompc/internal/netsim"
	"topompc/internal/obs"
)

// TestCCFastFlightRecorder pins what a traced cc-fast run records: the
// phase, doubling-round and fallback counters agree with the Result and
// with the per-phase spans, and the run traces no hierarchy combining
// decisions, since cc-fast answers root lookups by subscription push.
func TestCCFastFlightRecorder(t *testing.T) {
	tree := testTrees(t)["twotier-skew"]
	packed := families(t, rand.New(rand.NewSource(7)))["powerlaw"]
	pl := placeEdges(packed, tree.NumCompute())
	ref := Reference(pl)
	reg := obs.NewRegistry()
	tc := obs.NewTrace()
	res, err := CCFast(tree, pl, 42, netsim.WithMetrics(reg), netsim.WithTracer(tc))
	if err != nil {
		t.Fatal(err)
	}
	if res.Components != ref.Count || res.Checksum != ref.Checksum {
		t.Fatalf("traced run: %d components (%x), want %d (%x)",
			res.Components, res.Checksum, ref.Count, ref.Checksum)
	}
	if res.Strategy != "fast" {
		t.Errorf("strategy = %q, want %q", res.Strategy, "fast")
	}

	snap := reg.Snapshot()
	if got := snap["graph.ccfast.phases"]; got != float64(res.Phases) {
		t.Errorf("graph.ccfast.phases = %v, want Result.Phases = %d", got, res.Phases)
	}
	dbl, ok := snap["graph.ccfast.doubling_rounds"]
	if !ok || dbl < 0 {
		t.Errorf("graph.ccfast.doubling_rounds = %v (present %v), want >= 0", dbl, ok)
	}
	if fb, ok := snap["graph.ccfast.fallback_phases"]; !ok || fb > float64(res.Phases) {
		t.Errorf("graph.ccfast.fallback_phases = %v (present %v), want <= %d", fb, ok, res.Phases)
	}
	// Exactly these three: the Borůvka-replay counter of earlier versions
	// is gone, and a new cc-fast metric should land with a test.
	var keys []string
	for _, k := range obs.SnapshotKeys(snap) {
		if strings.HasPrefix(k, "graph.ccfast.") {
			keys = append(keys, k)
		}
	}
	want := []string{"graph.ccfast.doubling_rounds", "graph.ccfast.fallback_phases", "graph.ccfast.phases"}
	if !slices.Equal(keys, want) {
		t.Errorf("cc-fast metrics %v, want exactly %v", keys, want)
	}

	spans, spanDbl := 0, 0
	for _, ev := range tc.Events() {
		switch ev.Cat {
		case "place.combine":
			t.Fatalf("trace has combine decision %q, want none from cc-fast", ev.Name)
		case "graph.phase":
			spans++
			d, ok := ev.Args["doubling_rounds"].(int)
			if !ok {
				t.Fatalf("phase span %q has doubling_rounds %v, want an int", ev.Name, ev.Args["doubling_rounds"])
			}
			spanDbl += d
		}
	}
	if spans != res.Phases {
		t.Errorf("%d phase spans, want %d", spans, res.Phases)
	}
	if float64(spanDbl) != dbl {
		t.Errorf("phase spans sum to %d doubling rounds, counter says %v", spanDbl, dbl)
	}
}

// TestCheckVertexCount pins the int32 index guard at its boundary; 2³¹
// vertices cannot be built in a test, so the count is checked directly.
func TestCheckVertexCount(t *testing.T) {
	if err := checkVertexCount(math.MaxInt32); err != nil {
		t.Fatalf("checkVertexCount(MaxInt32) = %v, want nil", err)
	}
	if math.MaxInt == math.MaxInt32 {
		t.Skip("int is 32 bits: no count exceeds MaxInt32")
	}
	n := math.MaxInt32
	n++
	if err := checkVertexCount(n); !errors.Is(err, ErrTooManyVertices) {
		t.Fatalf("checkVertexCount(MaxInt32+1) = %v, want ErrTooManyVertices", err)
	}
}
