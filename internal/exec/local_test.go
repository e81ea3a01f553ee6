package exec

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"loopsched/internal/sched"
	"loopsched/internal/trace"
	"loopsched/internal/workload"
)

func specs(scales ...int) []*WorkerSpec {
	out := make([]*WorkerSpec, len(scales))
	for i, s := range scales {
		out[i] = &WorkerSpec{WorkScale: s}
	}
	return out
}

// TestLocalExactlyOnce: every iteration runs exactly once per
// WorkScale repetition, for every scheme, under real concurrency.
func TestLocalExactlyOnce(t *testing.T) {
	const n = 2000
	for _, name := range sched.Names() {
		s, err := sched.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int32, n)
		l := &Local{Scheme: s, Workers: specs(1, 1, 1, 1)}
		rep, err := l.Run(workload.Uniform{N: n}, func(i int) {
			atomic.AddInt32(&counts[i], 1)
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Iterations != n {
			t.Errorf("%s: %d iterations", name, rep.Iterations)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("%s: iteration %d ran %d times", name, i, c)
			}
		}
	}
}

// TestLocalHeterogeneous: WorkScale-3 workers repeat the body three
// times per iteration, so the total body count is predictable even
// though the split is scheme-dependent.
func TestLocalHeterogeneous(t *testing.T) {
	const n = 500
	var total atomic.Int64
	perIter := make([]int32, n)
	l := &Local{Scheme: sched.DTSSScheme{}, Workers: specs(1, 3)}
	rep, err := l.Run(workload.Uniform{N: n}, func(i int) {
		total.Add(1)
		atomic.AddInt32(&perIter[i], 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Iterations != n {
		t.Errorf("iterations = %d", rep.Iterations)
	}
	// Each iteration ran either 1× (fast worker) or 3× (slow worker).
	for i, c := range perIter {
		if c != 1 && c != 3 {
			t.Fatalf("iteration %d ran %d times", i, c)
		}
	}
	if got := total.Load(); got < int64(n) || got > int64(3*n) {
		t.Errorf("total body invocations %d out of range", got)
	}
}

// TestLocalDistributedFavoursFast: with scale-1 and scale-4 workers,
// a distributed scheme sizes the fast worker's chunks by its 4× ACP.
//
// How many chunks each worker ends up requesting is goroutine timing,
// not scheduling: the body is nearly free, so on a small machine the
// slow goroutine can fill both slots of several DFSS stages while the
// fast one is descheduled, and the whole-run split then swings either
// way. What the scheme controls is the size of each grant — within a
// stage, C_j = SC_k·A_j/A — so the test compares the two workers
// inside the stages where both drew a chunk. The gather barrier
// guarantees stage 0 is one of them.
func TestLocalDistributedFavoursFast(t *testing.T) {
	const n = 4000
	var mu sync.Mutex
	owner := make([]int, n)
	tr := &trace.Trace{}
	ws := specs(1, 4)
	l := &Local{Scheme: sched.NewDFSS(), Workers: ws, Trace: tr}
	rep, err := l.Run(workload.Uniform{N: n}, func(i int) {
		mu.Lock()
		owner[i]++
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Chunks == 0 {
		t.Error("no chunks recorded")
	}
	chunks := tr.Events()
	sort.Slice(chunks, func(i, j int) bool { return chunks[i].Start < chunks[j].Start })
	for _, c := range chunks {
		for i := c.Start; i < c.Start+c.Size; i++ {
			if want := ws[c.Worker].scale(); owner[i] != want {
				t.Fatalf("iteration %d ran %d times on worker %d, want %d", i, owner[i], c.Worker, want)
			}
		}
		// The zero acp.Model scales V_i = maxScale/scale by 10.
		if want := 10 * 4 / ws[c.Worker].scale(); c.ACP != want {
			t.Fatalf("worker %d reported ACP %d, want %d", c.Worker, c.ACP, want)
		}
	}
	// A DFSS stage is p = 2 consecutive grants; grants follow the start
	// order, and the constant ACPs never trigger a re-plan.
	var fast, slow int
	for k := 0; k+1 < len(chunks); k += 2 {
		a, b := chunks[k], chunks[k+1]
		if a.Worker == b.Worker {
			continue
		}
		if a.Worker == 1 {
			a, b = b, a
		}
		fast += a.Size
		slow += b.Size
	}
	if slow == 0 {
		t.Fatal("no stage granted both workers a chunk")
	}
	if fast < 2*slow {
		t.Errorf("in shared stages the fast worker got %d iterations, want ≫ slow's %d", fast, slow)
	}
}

// TestLocalLoadAdjustment: AddLoad changes the reported ACP and can
// trigger a re-plan mid-run.
func TestLocalLoadAdjustment(t *testing.T) {
	const n = 50000
	ws := specs(1, 1, 1, 1)
	l := &Local{Scheme: sched.DTSSScheme{}, Workers: ws}
	var fired atomic.Bool
	_, err := l.Run(workload.Uniform{N: n}, func(i int) {
		// CompareAndSwap, not Load then Store: two workers past n/10
		// at once would both add the load.
		if i > n/10 && fired.CompareAndSwap(false, true) {
			ws[0].AddLoad(3)
			ws[1].AddLoad(3)
			ws[2].AddLoad(3)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Replans are timing-dependent under real concurrency, so only
	// sanity-check the load plumbing itself.
	if ws[0].Load() != 3 {
		t.Errorf("Load = %d, want 3", ws[0].Load())
	}
	ws[0].AddLoad(-5)
	if ws[0].Load() != 0 {
		t.Errorf("Load floor broken: %d", ws[0].Load())
	}
}

// TestLocalCancellation: cancelling the context stops the run early
// with ctx's error; no goroutines are left behind (checked indirectly:
// a second run on the same executor works).
func TestLocalCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	l := &Local{Scheme: sched.SelfScheduling, Workers: specs(1, 1)}
	var n atomic.Int64
	_, err := l.RunContext(ctx, workload.Uniform{N: 1 << 30}, func(i int) {
		if n.Add(1) == 100 {
			cancel()
		}
	})
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The executor is reusable after cancellation.
	rep, err := l.Run(workload.Uniform{N: 100}, func(int) {})
	if err != nil || rep.Iterations != 100 {
		t.Fatalf("rerun: %v, %d iterations", err, rep.Iterations)
	}
}

// TestLocalCancelBeforeGather: cancelling during the distributed
// master's initial gather also unblocks cleanly.
func TestLocalCancelBeforeGather(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the run starts
	l := &Local{Scheme: sched.DTSSScheme{}, Workers: specs(1, 1)}
	_, err := l.RunContext(ctx, workload.Uniform{N: 1000}, func(int) {})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestLocalNoWorkers(t *testing.T) {
	l := &Local{Scheme: sched.GSSScheme{}}
	if _, err := l.Run(workload.Uniform{N: 10}, func(int) {}); err == nil {
		t.Error("no-worker run accepted")
	}
}

func TestLocalEmptyLoop(t *testing.T) {
	l := &Local{Scheme: sched.TSSScheme{}, Workers: specs(1, 1)}
	rep, err := l.Run(workload.Uniform{N: 0}, func(int) {
		t.Error("body ran on empty loop")
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Iterations != 0 {
		t.Errorf("iterations = %d", rep.Iterations)
	}
}
