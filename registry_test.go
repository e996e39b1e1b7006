package topompc

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"topompc/internal/dataset"
	"topompc/internal/netsim"
	"topompc/internal/topology"
)

func testCluster(t *testing.T) *Cluster {
	c, err := TwoTierCluster([]int{3, 3}, []float64{4, 1}, 8)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func testInput(t *testing.T, c *Cluster, spec Task, n int) TaskInput {
	rng := rand.New(rand.NewSource(5))
	p := c.NumNodes()
	in := TaskInput{Seed: 42}
	var err error
	switch spec.Kind {
	case TaskPair:
		r, s := n/4, n/2
		if spec.WantsEqualPair {
			r, s = n/4, n/4
		}
		var rk, sk []uint64
		rk, sk, err = dataset.SetPair(rng, r, s, r/8)
		if err != nil {
			t.Fatal(err)
		}
		if in.R, err = dataset.SplitUniform(rk, p); err != nil {
			t.Fatal(err)
		}
		if in.S, err = dataset.SplitUniform(sk, p); err != nil {
			t.Fatal(err)
		}
	case TaskSingle:
		keys := dataset.Distinct(rng, n)
		if spec.WantsDuplicates {
			pool := dataset.Distinct(rng, n/8)
			for i := range keys {
				keys[i] = pool[rng.Intn(len(pool))]
			}
		}
		if in.Data, err = dataset.SplitUniform(keys, p); err != nil {
			t.Fatal(err)
		}
	case TaskGraph:
		verts := max(4, n/3)
		pairs := float64(verts) * float64(verts-1) / 2
		edges, err := dataset.GNP(rng, verts, min(1, float64(n)/pairs))
		if err != nil {
			t.Fatal(err)
		}
		if in.Data, err = dataset.SplitUniform(edges, p); err != nil {
			t.Fatal(err)
		}
	case TaskMulti:
		k := spec.NumRelations
		if k == 0 {
			k = 3
		}
		m := n / k
		dom := 24
		if !spec.Cyclic {
			dom = max(2, m/4)
		}
		in.Rels = make([][][]uint64, k)
		for j := range in.Rels {
			keys := make([]uint64, m)
			for i := range keys {
				b := uint64(rng.Intn(dom))
				if !spec.Cyclic {
					b = rng.Uint64() & 0xffffffff
				}
				keys[i] = EncodeTuple2(Tuple2{A: uint64(rng.Intn(dom)), B: b})
			}
			if in.Rels[j], err = dataset.SplitUniform(keys, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	return in
}

// TestRegistryRunsEveryTask executes each registered task end to end; the
// tasks verify their own outputs against reference computations.
func TestRegistryRunsEveryTask(t *testing.T) {
	c := testCluster(t)
	tasks := Tasks()
	if len(tasks) < 9 {
		t.Fatalf("registry has %d tasks, want at least 9", len(tasks))
	}
	for _, spec := range tasks {
		t.Run(spec.Name, func(t *testing.T) {
			res, err := c.RunTask(spec.Name, testInput(t, c, spec, 2000))
			if err != nil {
				t.Fatal(err)
			}
			if res.Summary == "" {
				t.Fatal("empty summary")
			}
			if res.Report == nil {
				t.Fatal("missing report")
			}
			if res.Cost.Cost < 0 {
				t.Fatalf("negative cost %v", res.Cost.Cost)
			}
		})
	}
}

// TestRegisterTaskDuplicateRejected: a second registration under a taken
// name returns ErrDuplicateTask and leaves the first registration intact.
func TestRegisterTaskDuplicateRejected(t *testing.T) {
	name := "test-dup-task"
	ran := ""
	first := Task{Name: name, Kind: TaskSingle, Run: func(c *Cluster, in TaskInput) (*TaskResult, error) {
		ran = "first"
		return &TaskResult{Summary: "first"}, nil
	}}
	if err := RegisterTask(first); err != nil {
		t.Fatalf("first registration failed: %v", err)
	}
	defer unregisterTask(name)
	dup := Task{Name: name, Kind: TaskSingle, Run: func(c *Cluster, in TaskInput) (*TaskResult, error) {
		ran = "second"
		return &TaskResult{Summary: "second"}, nil
	}}
	err := RegisterTask(dup)
	if !errors.Is(err, ErrDuplicateTask) {
		t.Fatalf("duplicate registration: got %v, want ErrDuplicateTask", err)
	}
	if !strings.Contains(err.Error(), name) {
		t.Errorf("error should name the task: %v", err)
	}
	// The original task still wins lookups — no silent shadowing.
	spec, ok := LookupTask(name)
	if !ok {
		t.Fatal("task vanished after rejected duplicate")
	}
	if _, err := spec.Run(nil, TaskInput{}); err != nil {
		t.Fatal(err)
	}
	if ran != "first" {
		t.Errorf("lookup resolved to %q registration, want first", ran)
	}
	if err := RegisterTask(Task{}); !errors.Is(err, ErrEmptyTaskName) {
		t.Errorf("empty name: got %v, want ErrEmptyTaskName", err)
	}
}

// TestRunTaskContainsPlanPanic: a panic inside a Plan callback — inline
// at one worker, re-raised from a worker goroutine at four — reaches the
// caller of RunTask as an ErrTaskPanic error naming the task.
func TestRunTaskContainsPlanPanic(t *testing.T) {
	name := "test-plan-panic"
	err := RegisterTask(Task{Name: name, Kind: TaskSingle, Run: func(c *Cluster, in TaskInput) (*TaskResult, error) {
		x := netsim.NewEngine(c.t, c.exec.netsimOpts()...).Exchange()
		x.Plan(func(v topology.NodeID, out *netsim.Outbox) {
			panic("plan boom")
		})
		x.Execute()
		return &TaskResult{}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer unregisterTask(name)
	for _, workers := range []int{1, 4} {
		c := testCluster(t)
		c.SetExecOptions(ExecOptions{Workers: workers})
		res, err := c.RunTask(name, TaskInput{})
		if !errors.Is(err, ErrTaskPanic) {
			t.Fatalf("workers=%d: got (%v, %v), want ErrTaskPanic", workers, res, err)
		}
		if !strings.Contains(err.Error(), name) || !strings.Contains(err.Error(), "plan boom") {
			t.Errorf("workers=%d: error should name the task and the panic: %v", workers, err)
		}
	}
}

// unregisterTask removes a task a test registered.
func unregisterTask(name string) {
	taskMu.Lock()
	delete(taskRegistry, name)
	taskMu.Unlock()
}

// TestRegistryConcurrentUse registers uniquely named tasks while other
// goroutines run and list tasks; under -race any unguarded access to the
// registry map is reported.
func TestRegistryConcurrentUse(t *testing.T) {
	probe := func(*Cluster, TaskInput) (*TaskResult, error) { return &TaskResult{Summary: "ok"}, nil }
	names := make([]string, 64)
	for i := range names {
		names[i] = fmt.Sprintf("test-concurrent-%d", i)
	}
	t.Cleanup(func() {
		for _, n := range names {
			unregisterTask(n)
		}
	})
	if err := RegisterTask(Task{Name: names[0], Kind: TaskSingle, Run: probe}); err != nil {
		t.Fatal(err)
	}
	c := testCluster(t)

	const readers = 4
	errs := make(chan error, readers+1)
	var wg sync.WaitGroup
	wg.Add(readers + 1)
	go func() {
		defer wg.Done()
		for _, n := range names[1:] {
			if err := RegisterTask(Task{Name: n, Kind: TaskSingle, Run: probe}); err != nil {
				errs <- err
				return
			}
		}
	}()
	for g := 0; g < readers; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if res, err := c.RunTask(names[0], TaskInput{}); err != nil || res.Summary != "ok" {
					errs <- fmt.Errorf("RunTask(%s) = %v, %v", names[0], res, err)
					return
				}
				if _, err := c.RunTask("no-such-task", TaskInput{}); err == nil {
					errs <- errors.New("RunTask of an unknown task succeeded")
					return
				}
				if len(Tasks()) == 0 {
					errs <- errors.New("Tasks listed nothing")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for _, n := range names {
		if _, ok := LookupTask(n); !ok {
			t.Errorf("task %s missing after concurrent registration", n)
		}
	}
}

// TestRegistryUnknownTask reports the available names.
func TestRegistryUnknownTask(t *testing.T) {
	c := testCluster(t)
	_, err := c.RunTask("no-such-task", TaskInput{})
	if err == nil || !strings.Contains(err.Error(), "intersect") {
		t.Fatalf("want error listing tasks, got %v", err)
	}
}

// TestExecOptionsDeterminism: the worker budget must not change any
// result or cost.
func TestExecOptionsDeterminism(t *testing.T) {
	for _, spec := range Tasks() {
		base := testCluster(t)
		in := testInput(t, base, spec, 3000)
		ref, err := base.RunTask(spec.Name, in)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		for _, workers := range []int{1, 2, 7} {
			c := testCluster(t)
			c.SetExecOptions(ExecOptions{Workers: workers})
			res, err := c.RunTask(spec.Name, in)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", spec.Name, workers, err)
			}
			if res.Cost.Cost != ref.Cost.Cost || res.Cost.Elements != ref.Cost.Elements ||
				res.Cost.Rounds != ref.Cost.Rounds || res.Summary != ref.Summary {
				t.Fatalf("%s workers=%d: result diverged: %+v vs %+v",
					spec.Name, workers, res, ref)
			}
		}
	}
}

// TestExecOptionsBits: bit-width accounting multiplies the element cost.
func TestExecOptionsBits(t *testing.T) {
	c := testCluster(t)
	c.SetExecOptions(ExecOptions{BitsPerElement: 64})
	spec, _ := LookupTask("intersect")
	res, err := c.RunTask("intersect", testInput(t, c, spec, 2000))
	if err != nil {
		t.Fatal(err)
	}
	if want := res.Cost.Cost * 64; res.Cost.Bits != want {
		t.Fatalf("Bits = %v, want %v", res.Cost.Bits, want)
	}

	plain := testCluster(t)
	pres, err := plain.RunTask("intersect", testInput(t, plain, spec, 2000))
	if err != nil {
		t.Fatal(err)
	}
	if pres.Cost.Bits != 0 {
		t.Fatalf("Bits = %v without BitsPerElement, want 0", pres.Cost.Bits)
	}
}
