package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests check the
// benchmark's output against.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// smoke runs one workload at the tests' small scale.
func smoke(t *testing.T, workload string, trace bool, out string) *result {
	t.Helper()
	res, err := bench(options{workload: workload, seed: 7, seconds: 1, trace: trace, out: out, sc: smallScale}, &bytes.Buffer{})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !res.line.Correct || res.line.Failed != 0 || res.line.Attempted == 0 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d failures=%v",
			workload, res.line.Correct, res.line.Attempted, res.line.Failed, res.detail["failures"])
	}
	return res
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	var layers []string
	for _, m := range b.PerLayer {
		layers = append(layers, m.Name)
		if want := layerUnit(m.Name); m.Unit != want {
			t.Errorf("per-layer %s: BENCHMARK.json unit %q, benchmark reports %q", m.Name, m.Unit, want)
		}
	}
	if !reflect.DeepEqual(layers, layerMetricNames()) {
		t.Fatalf("BENCHMARK.json per-layer metrics %v, benchmark reports %v", layers, layerMetricNames())
	}
}

// Every end-to-end metric is emitted with its unit, the deterministic
// ones repeat exactly in a second run, and that second run finds the
// first run's fingerprints and agrees with them.
func TestSmokeEndToEnd(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			out := t.TempDir()
			first := smoke(t, w, false, out)
			second := smoke(t, w, false, out)
			if len(first.line.Metrics) != len(b.EndToEnd) {
				t.Errorf("emitted %d metrics, BENCHMARK.json names %d", len(first.line.Metrics), len(b.EndToEnd))
			}
			for _, m := range b.EndToEnd {
				got, ok := first.line.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s: emitted %+v (present %v), want unit %q", m.Name, got, ok, m.Unit)
					continue
				}
				if !(got.Value > 0) || math.IsInf(got.Value, 0) {
					t.Errorf("%s = %v, want a positive finite value", m.Name, got.Value)
				}
			}
			for _, name := range []string{"model_cost", "rounds", "elements"} {
				if a, b := first.line.Metrics[name].Value, second.line.Metrics[name].Value; a != b {
					t.Errorf("%s: %v then %v", name, a, b)
				}
			}
		})
	}
}

// The traced run reports every per-layer metric with its unit, and each
// task's protocol, verify, bound and glue add up to its traced RunTask.
func TestSmokeTraced(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			res := smoke(t, w, true, t.TempDir())
			if len(res.line.Metrics) != len(b.PerLayer) {
				t.Errorf("emitted %d metrics, BENCHMARK.json names %d", len(res.line.Metrics), len(b.PerLayer))
			}
			for _, m := range b.PerLayer {
				got, ok := res.line.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s: emitted %+v (present %v), want unit %q", m.Name, got, ok, m.Unit)
				}
			}
			wl, err := newWorkload(w, smallScale)
			if err != nil {
				t.Fatal(err)
			}
			val := func(name string) float64 { return res.line.Metrics[name].Value }
			for _, task := range wl.tasks {
				parts := val(task+".protocol_s") + val(task+".verify_s") + val(task+".bound_s") + val(task+".glue_s")
				if traced := val(task + ".traced_s"); traced <= 0 || math.Abs(parts-traced) > 1e-9*traced {
					t.Errorf("%s: parts add up to %v, traced RunTask %v", task, parts, traced)
				}
				if round, local := val(task+".round_s"), val(task+".local_s"); round < 0 || local < 0 {
					t.Errorf("%s: round %v, local %v", task, round, local)
				}
			}
			if val("netsim.rounds") <= 0 || val("trace_overhead") <= 0 || val("oracle.share") <= 0 {
				t.Errorf("rounds %v, trace overhead %v, oracle share %v",
					val("netsim.rounds"), val("trace_overhead"), val("oracle.share"))
			}
			if wl.general && val("topology.maxflows") != float64(len(wl.spec.Nodes)-1) {
				t.Errorf("maxflows %v, want one per non-root node (%d)", val("topology.maxflows"), len(wl.spec.Nodes)-1)
			}
		})
	}
}

func TestInputsFollowTheSeed(t *testing.T) {
	w, err := newWorkload("analytics-twotier", smallScale)
	if err != nil {
		t.Fatal(err)
	}
	a, err := w.inputs(1, 12)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := w.inputs(1, 12)
	c, _ := w.inputs(2, 12)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave different inputs")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same inputs")
	}
}

// A run that cannot start prints no result line and exits non-zero.
func TestBadArgumentsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "no-such-workload"},
		{"--workload", "analytics-twotier", "--trace", "2"},
		{"--workload", "analytics-twotier", "--seconds", "0"},
		{"--workload", "analytics-twotier", "extra"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
		if !strings.Contains(stderr.String(), "perfbench") {
			t.Errorf("%v: stderr %q names no cause", args, stderr.String())
		}
	}
}
