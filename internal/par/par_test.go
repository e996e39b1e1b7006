package par

import (
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"topompc/internal/obs"
)

// TestBlocksCoverExactlyOnce checks the static partition: every index is
// visited exactly once, shard ranges are contiguous, and the partition is
// identical across repeated calls.
func TestBlocksCoverExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		p := New(workers)
		for _, n := range []int{0, 1, 2, 7, 64, 1000} {
			hits := make([]int32, n)
			p.Blocks("cover", n, func(shard, lo, hi int) {
				if lo > hi || lo < 0 || hi > n {
					t.Errorf("workers=%d n=%d shard %d: bad range [%d,%d)", workers, n, shard, lo, hi)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, h)
				}
			}
		}
	}
}

// TestForEachAndSum checks the wrappers agree with a serial loop for every
// worker count.
func TestForEachAndSum(t *testing.T) {
	const n = 12345
	want := int64(n) * int64(n-1) / 2
	for _, workers := range []int{1, 2, 8} {
		p := New(workers)
		var got atomic.Int64
		p.ForEach("sum", n, func(i int) { got.Add(int64(i)) })
		if got.Load() != want {
			t.Fatalf("workers=%d: ForEach sum = %d, want %d", workers, got.Load(), want)
		}
		s := p.Sum("sum", n, func(_, lo, hi int) int64 {
			var acc int64
			for i := lo; i < hi; i++ {
				acc += int64(i)
			}
			return acc
		})
		if s != want {
			t.Fatalf("workers=%d: Sum = %d, want %d", workers, s, want)
		}
	}
}

// TestSortUint64 checks the parallel radix against the standard sort on
// random, constant-lane-heavy, and already-sorted inputs, for worker
// counts on both sides of the serial threshold.
func TestSortUint64(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	inputs := map[string][]uint64{}
	big := make([]uint64, 300_000)
	for i := range big {
		big[i] = rng.Uint64()
	}
	inputs["random"] = big
	packed := make([]uint64, 250_000)
	for i := range packed {
		// Index-packed keys: only the low bytes of each half vary.
		packed[i] = uint64(rng.Intn(1<<20))<<32 | uint64(rng.Intn(1<<20))
	}
	inputs["packed"] = packed
	asc := make([]uint64, 200_000)
	for i := range asc {
		asc[i] = uint64(i)
	}
	inputs["sorted"] = asc
	inputs["small"] = []uint64{3, 1, 2}
	inputs["empty"] = nil

	for name, in := range inputs {
		want := append([]uint64(nil), in...)
		slices.Sort(want)
		for _, workers := range []int{1, 2, 8} {
			p := New(workers)
			got := append([]uint64(nil), in...)
			got, _ = p.SortUint64(got, nil)
			if !slices.Equal(got, want) {
				t.Fatalf("%s workers=%d: sort mismatch", name, workers)
			}
		}
	}
}

// TestSortUint64ReusesScratch checks the scratch buffer round-trips.
func TestSortUint64ReusesScratch(t *testing.T) {
	p := New(4)
	rng := rand.New(rand.NewSource(6))
	a := make([]uint64, 200_000)
	tmp := make([]uint64, len(a))
	for round := 0; round < 3; round++ {
		for i := range a {
			a[i] = rng.Uint64()
		}
		var sorted []uint64
		sorted, tmp = p.SortUint64(a, tmp)
		if !slices.IsSorted(sorted) {
			t.Fatalf("round %d: not sorted", round)
		}
		a = sorted
	}
}

// TestInstrumentation checks the par.* metrics and the per-worker lanes:
// a fork records its shard count, and shard spans land on worker lanes.
func TestInstrumentation(t *testing.T) {
	tr := obs.NewTrace()
	reg := obs.NewRegistry()
	p := New(4)
	p.Instrument(tr, reg)
	p.ForEach("probe", 100, func(i int) {})
	snap := reg.Snapshot()
	if snap["par.shards"] != 4 {
		t.Fatalf("par.shards = %v, want 4", snap["par.shards"])
	}
	if snap["par.forks"] != 1 {
		t.Fatalf("par.forks = %v, want 1", snap["par.forks"])
	}
	spans := 0
	for _, e := range tr.Events() {
		if e.Cat == "par.shard" {
			spans++
		}
	}
	if spans != 4 {
		t.Fatalf("recorded %d shard spans, want 4", spans)
	}
}

// TestUninstrumentedNoAllocs pins the disabled-path cost: a single-worker
// fork of a prebuilt body performs no allocation (the inline-serial path
// never reaches the goroutine machinery).
func TestUninstrumentedNoAllocs(t *testing.T) {
	p := New(1)
	fn := func(shard, lo, hi int) {}
	allocs := testing.AllocsPerRun(100, func() {
		p.Blocks("quiet", 64, fn)
	})
	if allocs != 0 {
		t.Fatalf("single-worker Blocks allocated %.1f/op, want 0", allocs)
	}
}

// TestBlocksPanicReraisedOnCaller: a panic in a shard is re-raised on the
// goroutine that called Blocks, after every other shard has finished.
func TestBlocksPanicReraisedOnCaller(t *testing.T) {
	p := New(4)
	for _, bad := range []int{0, 2} { // the caller's own shard and a spawned one
		var done [4]atomic.Bool
		got := func() (v any) {
			defer func() { v = recover() }()
			p.Blocks("panic", 4, func(shard, lo, hi int) {
				if shard == bad {
					panic(shard)
				}
				done[shard].Store(true)
			})
			return nil
		}()
		if got != bad {
			t.Fatalf("shard %d: recovered %v, want the shard's panic value", bad, got)
		}
		for s := range done {
			if s != bad && !done[s].Load() {
				t.Fatalf("shard %d panicked: Blocks returned before shard %d finished", bad, s)
			}
		}
	}
}
