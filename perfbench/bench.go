package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"syscall"
	"time"

	"topompc"
)

// result is everything one run reports.
type result struct {
	line       resultLine
	provenance map[string]any
	detail     map[string]any
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runner holds one run's workload, inputs and failure accounting.
type runner struct {
	opt    options
	w      *workload
	spec   []byte
	inputs []topompc.TaskInput
	// elements is the number of input keys one job processes.
	elements int64
	// want is each task's fingerprint from the first execution; every
	// later execution must reproduce it exactly.
	want      []string
	attempted int
	failed    int
	failures  []string
	log       io.Writer
}

// fingerprint is the deterministic part of a task result: rounds, model
// cost, shipped elements, lower bound and the verified output's summary.
func fingerprint(res *topompc.TaskResult) string {
	c := res.Cost
	return costPrint(c.Rounds, c.Cost, c.Elements, c.LowerBound) + fmt.Sprintf(" summary=%q", res.Summary)
}

// costPrint is the cost part of a fingerprint, floats as exact bits.
func costPrint(rounds int, cost float64, elements int64, bound float64) string {
	return fmt.Sprintf("rounds=%d cost=%x elements=%d bound=%x",
		rounds, math.Float64bits(cost), elements, math.Float64bits(bound))
}

func (r *runner) fail(msg string) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, msg)
	}
	fmt.Fprintln(r.log, "perfbench: FAIL", msg)
}

// runTask runs task i through the public registry path, counting the
// attempt, recovering a panic on this goroutine as a failure, and
// checking the result's fingerprint against the first execution. where
// names the execution in failure messages. A failed task returns nil.
func (r *runner) runTask(c *topompc.Cluster, i int, where string) (res *topompc.TaskResult) {
	task := r.w.tasks[i]
	r.attempted++
	defer func() {
		if p := recover(); p != nil {
			res = nil
			r.fail(fmt.Sprintf("%s: %s panicked: %v", where, task, p))
		}
	}()
	res, err := c.RunTask(task, r.inputs[i])
	if err != nil {
		r.fail(fmt.Sprintf("%s: %s: %v", where, task, err))
		return nil
	}
	fp := fingerprint(res)
	switch {
	case r.want[i] == "":
		r.want[i] = fp
	case r.want[i] != fp:
		r.fail(fmt.Sprintf("%s: %s result %s differs from %s", where, task, fp, r.want[i]))
	}
	return res
}

// jobStats is one job's wall clock and its deterministic totals.
type jobStats struct {
	wall     time.Duration
	perTask  []time.Duration
	cost     float64
	rounds   int
	elements int64
}

// job runs every task of the workload once on c.
func (r *runner) job(c *topompc.Cluster, where string) jobStats {
	st := jobStats{perTask: make([]time.Duration, len(r.w.tasks))}
	for i := range r.w.tasks {
		t0 := time.Now()
		res := r.runTask(c, i, where)
		st.perTask[i] = time.Since(t0)
		st.wall += st.perTask[i]
		if res != nil {
			st.cost += res.Cost.Cost
			st.rounds += res.Cost.Rounds
			st.elements += res.Cost.Elements
		}
	}
	return st
}

// cluster builds a fresh cluster from the spec bytes.
func (r *runner) cluster(exec topompc.ExecOptions) (*topompc.Cluster, error) {
	c, err := r.w.parse(r.spec)
	if err != nil {
		return nil, err
	}
	c.SetExecOptions(exec)
	return c, nil
}

// bench runs one workload as opt says.
func bench(opt options, log io.Writer) (*result, error) {
	w, err := newWorkload(opt.workload, opt.sc)
	if err != nil {
		return nil, err
	}
	r := &runner{opt: opt, w: w, want: make([]string, len(w.tasks)), log: log}
	if r.spec, err = w.specBytes(); err != nil {
		return nil, err
	}
	probe, err := w.parse(r.spec)
	if err != nil {
		return nil, err
	}
	nodes := probe.NumNodes()
	// Set-up is timed on a heap that holds only the spec: here, before
	// the inputs exist, and again once a timed run has let them go.
	var setup []float64
	if !opt.trace {
		if setup, err = r.timeSetup(); err != nil {
			return nil, err
		}
	}
	if r.inputs, err = w.inputs(opt.seed, nodes); err != nil {
		return nil, err
	}
	for _, in := range r.inputs {
		r.elements += inputElements(in)
	}

	out := &result{
		provenance: provenance(opt, w, len(r.spec), r.elements),
		detail:     map[string]any{},
	}
	var metrics map[string]metric
	if opt.trace {
		metrics, err = r.traced(out.detail)
	} else {
		metrics, err = r.endToEnd(out.detail, setup)
	}
	if err != nil {
		return nil, err
	}
	if err := r.crossRun(); err != nil {
		return nil, err
	}
	out.detail["fail_rate"] = float64(r.failed) / float64(max(1, r.attempted))
	if len(r.failures) > 0 {
		out.detail["failures"] = r.failures
	}
	out.line = resultLine{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   metrics,
	}
	return out, nil
}

// coldJobs is how many fresh clusters first_job_s takes the median over.
const coldJobs = 5

// endToEnd measures what a user of the system sees, with tracing off.
// setup holds the per-call times of the set-up batches timed before the
// inputs were made. The set-up batches and the cold jobs are spread over
// the run, so their medians, like job_s, see the host at several moments.
func (r *runner) endToEnd(detail map[string]any, setup []float64) (map[string]metric, error) {
	// A cold job is the first job on a fresh cluster: it builds the
	// tree's lazy placement state. The first of them also grows the heap;
	// its totals are the job's deterministic metrics.
	var cold []float64
	var first jobStats
	coldJob := func() (*topompc.Cluster, error) {
		c, err := r.cluster(topompc.ExecOptions{})
		if err != nil {
			return nil, err
		}
		runtime.GC()
		st := r.job(c, fmt.Sprintf("cold job %d", len(cold)+1))
		if len(cold) == 0 {
			first = st
		}
		cold = append(cold, st.wall.Seconds())
		return c, nil
	}
	c, err := coldJob()
	if err != nil {
		return nil, err
	}

	// Warm jobs run on the first cluster; the other cold jobs fall evenly
	// inside and at the end of the window.
	var warm []float64
	var warmTotal time.Duration
	window := time.Duration(r.opt.seconds * float64(time.Second))
	start := time.Now()
	for len(warm) < 3 || time.Since(start) < window {
		if len(cold) < coldJobs-1 && time.Since(start) >= window*time.Duration(len(cold))/(coldJobs-1) {
			if _, err := coldJob(); err != nil {
				return nil, err
			}
			continue
		}
		st := r.job(c, fmt.Sprintf("warm job %d", len(warm)+1))
		warm = append(warm, st.wall.Seconds())
		warmTotal += st.wall
	}
	for len(cold) < coldJobs {
		if _, err := coldJob(); err != nil {
			return nil, err
		}
	}

	// The same job at one worker must reproduce every fingerprint.
	c1, err := r.cluster(topompc.ExecOptions{Workers: 1})
	if err != nil {
		return nil, err
	}
	r.job(c1, "workers=1 job")

	r.inputs = nil
	more, err := r.timeSetup()
	if err != nil {
		return nil, err
	}
	setup = append(setup, more...)

	detail["setup_batches"] = len(setup)
	detail["cold_job_s"] = cold
	detail["job_samples"] = len(warm)
	detail["job_s_quartiles"] = quartiles(warm)
	detail["fingerprints"] = r.want
	return map[string]metric{
		"setup_s":     {median(setup), "s"},
		"first_job_s": {median(cold), "s"},
		"job_s":       {median(warm), "s"},
		"melem_per_s": {float64(r.elements) * float64(len(warm)) / warmTotal.Seconds() / 1e6, "Melem/s"},
		"peak_mem_mb": {peakMemMB(), "MB"},
		"model_cost":  {first.cost, "cost"},
		"rounds":      {float64(first.rounds), "count"},
		"elements":    {float64(first.elements), "count"},
	}, nil
}

// timeSetup times the public constructor on the spec bytes for about
// 0.75 s and returns the per-call time of each batch. Calls run in
// batches of at least 40 ms, each from a collected heap, so a
// microsecond-scale parse is timed as steadily as a 0.1 s one.
func (r *runner) timeSetup() ([]float64, error) {
	t0 := time.Now()
	if _, err := r.w.parse(r.spec); err != nil {
		return nil, err
	}
	batch := max(1, int(40*time.Millisecond/max(time.Since(t0), time.Microsecond)))
	var per []float64
	start := time.Now()
	for len(per) < 5 || time.Since(start) < 750*time.Millisecond {
		runtime.GC()
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			if _, err := r.w.parse(r.spec); err != nil {
				return nil, err
			}
		}
		per = append(per, time.Since(t0).Seconds()/float64(batch))
	}
	return per, nil
}

// crossRun compares the run's fingerprints with those an earlier run of
// the same binary, workload and seed stored, or stores them.
func (r *runner) crossRun() error {
	if slices.Contains(r.want, "") {
		return nil // a task failed; already counted
	}
	exe, err := binaryHash()
	if err != nil {
		return err
	}
	dir := filepath.Join(r.opt.out, "fingerprints")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-n%d-seed%d-%s.json", r.w.name, r.w.n, r.opt.seed, exe))
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		var prev []string
		if err := json.Unmarshal(data, &prev); err != nil {
			return fmt.Errorf("fingerprints %s: %w", path, err)
		}
		for i, fp := range r.want {
			if i >= len(prev) || prev[i] != fp {
				r.fail(fmt.Sprintf("%s result differs from an earlier run of this binary (%s)", r.w.tasks[i], path))
			}
		}
		return nil
	case errors.Is(err, os.ErrNotExist):
		data, err := json.Marshal(r.want)
		if err != nil {
			return err
		}
		tmp := path + ".tmp"
		if err := os.WriteFile(tmp, data, 0o644); err != nil {
			return err
		}
		return os.Rename(tmp, path)
	default:
		return err
	}
}

// binaryHash identifies the running binary, so stored fingerprints are
// only compared between runs of the same code.
func binaryHash() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// provenance records where and on what a run was made.
func provenance(opt options, w *workload, specBytes int, elements int64) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"workload":      w.name,
		"seed":          opt.seed,
		"held_out_seed": heldOutSeed,
		"trace":         opt.trace,
		"seconds":       opt.seconds,
		"num_cpu":       runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"goos":          runtime.GOOS,
		"goarch":        runtime.GOARCH,
		"commit":        commit,
		"spec_bytes":    specBytes,
		"network_nodes": len(w.spec.Nodes),
		"network_links": len(w.spec.Edges),
		"layout":        w.layout.String(),
		"task_n":        w.n,
		"tasks":         w.tasks,
		"job_elements":  elements,
	}
}

// peakMemMB is the process's peak resident set size.
func peakMemMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles reports the first quartile, median and third quartile.
func quartiles(xs []float64) [3]float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	at := func(q float64) float64 {
		if len(s) == 0 {
			return math.NaN()
		}
		pos := q * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[lo]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return [3]float64{at(0.25), at(0.5), at(0.75)}
}
