package main

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"topompc"
	"topompc/internal/core/place"
	"topompc/internal/netsim"
	"topompc/internal/obs"
	"topompc/internal/topology"
)

// Per-task layer metrics, in seconds: the best of the run's repetitions,
// the cost of the work without the noise that only ever adds time.
// traced_s is the traced RunTask; the parts are the protocol (split into
// round and local time), verify and bound; glue_s is traced_s minus the
// parts, the registry's own work. Where that work is O(nodes), glue_s
// reads 0 within the timing noise and may come out slightly negative.
var taskLayers = []string{"traced_s", "protocol_s", "round_s", "local_s", "verify_s", "bound_s", "glue_s"}

// layerMetricNames lists every per-layer metric a traced run reports, in
// a fixed order. Per-task metrics cover every task of every workload; a
// task outside the running workload reports 0 s.
func layerMetricNames() []string {
	names := []string{
		"topology.parse_s", "topology.cuttree_s", "topology.maxflows",
		"place.capacities_s", "place.hierarchy_s", "place.levels",
		"par.shards", "par.forks", "par.imbalance.mean", "par.imbalance.max",
		"netsim.rounds", "netsim.messages", "netsim.messages_per_round", "netsim.elements", "netsim.max_received",
		"oracle.share", "trace_overhead",
	}
	for _, l := range taskLayers {
		names = append(names, "job."+l)
	}
	for _, task := range allTasks() {
		for _, l := range taskLayers {
			names = append(names, task+"."+l)
		}
	}
	return names
}

// allTasks is the union of the workloads' task mixes, in first-use order.
func allTasks() []string {
	var out []string
	for _, name := range workloadNames {
		w, err := newWorkload(name, fullScale)
		if err != nil {
			panic(err) // workloadNames and newWorkload disagree: a bug
		}
		for _, t := range w.tasks {
			if !slices.Contains(out, t) {
				out = append(out, t)
			}
		}
	}
	return out
}

// layerUnit is the unit of a per-layer metric.
func layerUnit(name string) string {
	switch {
	case name == "oracle.share" || name == "trace_overhead" || name == "par.imbalance.mean" || name == "par.imbalance.max":
		return "ratio"
	case name[len(name)-2:] == "_s":
		return "s"
	}
	return "count"
}

// taskSplit accumulates the layer times of one task.
type taskSplit struct {
	traced []float64          // traced RunTask time per repetition
	best   map[string]float64 // best part times
}

// traced attaches the flight recorder and splits each job into layers by
// timing the public entry point of each layer from this code.
func (r *runner) traced(detail map[string]any) (map[string]metric, error) {
	m := map[string]float64{}
	tr := obs.NewTrace()

	// Topology front-end: the parser, and the Gomory–Hu cut tree of a
	// general network.
	parse := func() (*topology.Tree, *topology.Graph, error) {
		if r.w.general {
			g, err := topology.ParseGraphJSON(r.spec)
			return nil, g, err
		}
		t, err := topology.ParseJSON(r.spec)
		return t, nil, err
	}
	var parseT, cutT []float64
	var trees []*topology.Tree
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		t, g, err := parse()
		if err != nil {
			return nil, err
		}
		parseT = append(parseT, time.Since(t0).Seconds())
		if g != nil {
			n0 := tr.Len()
			t0 := time.Now()
			if t, err = topology.FromGraph(g, topology.FromGraphTracer(tr)); err != nil {
				return nil, err
			}
			cutT = append(cutT, time.Since(t0).Seconds())
			if i == 0 {
				m["topology.maxflows"] = float64(countCat(tr.Events()[n0:], "topology.maxflow"))
			}
		}
		trees = append(trees, t)
	}
	m["topology.parse_s"] = slices.Min(parseT)
	if len(cutT) > 0 {
		m["topology.cuttree_s"] = slices.Min(cutT)
	}

	// Placement on fresh (unmemoized) trees.
	var capT, hierT []float64
	for _, t := range trees[1:] {
		t0 := time.Now()
		caps := place.Capacities(t)
		capT = append(capT, time.Since(t0).Seconds())
		t0 = time.Now()
		h := place.NewHierarchy(t, caps)
		hierT = append(hierT, time.Since(t0).Seconds())
		if h != nil {
			m["place.levels"] = float64(len(h.Levels))
		}
	}
	m["place.capacities_s"] = slices.Min(capT)
	m["place.hierarchy_s"] = slices.Min(hierT)

	// The split runs on a tree of its own, built from the same spec.
	splitTree := trees[0]
	splits := make([]*taskSplit, len(r.w.tasks))
	for i := range splits {
		splits[i] = &taskSplit{best: map[string]float64{}}
	}

	plain, err := r.cluster(topompc.ExecOptions{})
	if err != nil {
		return nil, err
	}
	tracedC, err := r.cluster(topompc.ExecOptions{})
	if err != nil {
		return nil, err
	}
	r.job(plain, "warm-up job")

	var plainT, tracedT []float64
	var jobEvents []obs.Event
	var parSnap map[string]float64
	deadline := time.Now().Add(time.Duration(r.opt.seconds * float64(time.Second)))
	for rep := 0; rep < 3 || time.Now().Before(deadline); rep++ {
		plainT = append(plainT, r.job(plain, fmt.Sprintf("untraced job %d", rep+1)).wall.Seconds())

		// The first repetition records into the trace that is written
		// out; later ones into a fresh trace each, which keeps the file
		// and the heap to one repetition's events.
		rtr := tr
		if rep > 0 {
			rtr = obs.NewTrace()
		}
		reg := obs.NewRegistry()
		tracedC.SetExecOptions(topompc.ExecOptions{Tracer: rtr, Metrics: reg})
		n0 := rtr.Len()
		st := r.job(tracedC, fmt.Sprintf("traced job %d", rep+1))
		tracedT = append(tracedT, st.wall.Seconds())
		if rep == 0 {
			jobEvents = rtr.Events()[n0:]
		}
		parSnap = reg.Snapshot()

		// The directly called protocols carry the same recorder as the
		// traced RunTask, so both pay the same tracing cost.
		pieceOpts := []netsim.Option{netsim.WithTracer(rtr), netsim.WithMetrics(obs.NewRegistry())}
		for i, ts := range splits {
			ts.traced = append(ts.traced, st.perTask[i].Seconds())
			if err := r.measureSplit(i, ts, splitTree, rtr, pieceOpts); err != nil {
				return nil, fmt.Errorf("layer split: %s: %w", r.w.tasks[i], err)
			}
		}
	}

	for _, name := range layerMetricNames() {
		if _, ok := m[name]; !ok {
			m[name] = 0
		}
	}
	var oracle float64
	margins := map[string]float64{}
	for i, ts := range splits {
		task := r.w.tasks[i]
		ts.best["traced_s"] = slices.Min(ts.traced)
		parts := ts.best["protocol_s"] + ts.best["verify_s"] + ts.best["bound_s"]
		ts.best["glue_s"] = ts.best["traced_s"] - parts
		// Parts that exceed RunTask by more than its own run-to-run
		// spread would time work RunTask does not do.
		spread := slices.Max(ts.traced) - ts.best["traced_s"]
		margins[task] = ts.best["glue_s"] + spread
		if margins[task] < 0 {
			r.fail(fmt.Sprintf("layer split: %s parts (%.6f s) exceed its traced RunTask (%.6f s, spread %.6f s)",
				task, parts, ts.best["traced_s"], spread))
		}
		for _, l := range taskLayers {
			m[task+"."+l] = ts.best[l]
			m["job."+l] += ts.best[l]
		}
		oracle += ts.best["verify_s"] + ts.best["bound_s"]
	}
	m["oracle.share"] = oracle / m["job.traced_s"]
	m["trace_overhead"] = median(tracedT) / median(plainT)

	m["par.shards"] = parSnap["par.shards"]
	m["par.forks"] = parSnap["par.forks"]
	m["par.imbalance.mean"] = parSnap["par.imbalance.mean"]
	m["par.imbalance.max"] = parSnap["par.imbalance.max"]
	for _, e := range jobEvents {
		if e.Cat != "netsim.round" {
			continue
		}
		m["netsim.rounds"]++
		m["netsim.messages"] += argNum(e.Args["messages"])
		m["netsim.elements"] += argNum(e.Args["elements"])
		m["netsim.max_received"] = math.Max(m["netsim.max_received"], argNum(e.Args["max_received"]))
	}
	if m["netsim.rounds"] > 0 {
		m["netsim.messages_per_round"] = m["netsim.messages"] / m["netsim.rounds"]
	}

	path, events, err := writeTrace(tr, r.opt.out, fmt.Sprintf("trace-%s-seed%d.json", r.w.name, r.opt.seed))
	if err != nil {
		return nil, err
	}
	detail["trace_file"] = path
	detail["trace_events"] = events
	detail["repetitions"] = len(tracedT)
	detail["split_margin_s"] = margins
	detail["fingerprints"] = r.want

	out := make(map[string]metric, len(m))
	for name, v := range m {
		out[name] = metric{v, layerUnit(name)}
	}
	return out, nil
}

// measureSplit times one repetition of task i's protocol, verify and
// bound on tree t, and checks that the protocol and bound reproduce what
// RunTask reported.
func (r *runner) measureSplit(i int, ts *taskSplit, t *topology.Tree, tr *obs.Trace, opts []netsim.Option) error {
	sp, err := splitFor(r.w.tasks[i], t, r.inputs[i])
	if err != nil {
		return err
	}
	n0 := tr.Len()
	t0 := time.Now()
	rep, err := sp.protocol(opts)
	protocol := time.Since(t0).Seconds()
	if err != nil {
		return err
	}
	rounds := roundUnion(tr.Events()[n0:])
	var verify float64
	if sp.verify != nil {
		t0 = time.Now()
		err = sp.verify()
		verify = time.Since(t0).Seconds()
		if err != nil {
			return err
		}
	}
	t0 = time.Now()
	lb := sp.bound()
	bound := time.Since(t0).Seconds()

	got := costPrint(rep.NumRounds(), rep.TotalCost(), rep.TotalElements(), lb)
	if !strings.HasPrefix(r.want[i], got+" ") {
		return fmt.Errorf("parts computed %s, RunTask %s", got, r.want[i])
	}

	if old, ok := ts.best["protocol_s"]; !ok || protocol < old {
		ts.best["protocol_s"] = protocol
		// Round and local time belong to the same protocol call.
		ts.best["round_s"] = rounds
		ts.best["local_s"] = protocol - rounds
	}
	for name, v := range map[string]float64{"verify_s": verify, "bound_s": bound} {
		if old, ok := ts.best[name]; !ok || v < old {
			ts.best[name] = v
		}
	}
	return nil
}

// roundUnion is the wall time covered by netsim round spans
// (open→accounted), counting overlapping rounds once.
func roundUnion(events []obs.Event) float64 {
	type iv struct{ a, b float64 }
	var ivs []iv
	for _, e := range events {
		if e.Cat == "netsim.round" && e.Ph == obs.PhComplete {
			ivs = append(ivs, iv{e.Ts, e.Ts + e.Dur})
		}
	}
	slices.SortFunc(ivs, func(x, y iv) int { return cmp.Compare(x.a, y.a) })
	total, end := 0.0, math.Inf(-1)
	for _, v := range ivs {
		if v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total / 1e6 // trace times are microseconds
}

func countCat(events []obs.Event, cat string) int {
	n := 0
	for _, e := range events {
		if e.Cat == cat {
			n++
		}
	}
	return n
}

// argNum reads a numeric trace-event argument.
func argNum(v any) float64 {
	switch x := v.(type) {
	case int:
		return float64(x)
	case int32:
		return float64(x)
	case int64:
		return float64(x)
	case float64:
		return x
	}
	return 0
}

// writeTrace writes the Chrome trace after checking it against the
// trace-event schema.
func writeTrace(tr *obs.Trace, dir, name string) (string, int, error) {
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		return "", 0, err
	}
	if err := obs.ValidateTraceJSON(buf.Bytes()); err != nil {
		return "", 0, fmt.Errorf("trace: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", 0, err
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return "", 0, err
	}
	return path, tr.Len(), nil
}
