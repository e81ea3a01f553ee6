package exec

import (
	"sort"
	"testing"
	"unsafe"

	"loopsched/internal/hotpath"
	"loopsched/internal/sched"
	"loopsched/internal/steal"
	"loopsched/internal/workload"
)

// hotGuards is this package's alloc-guard table: one entry per
// //lint:loopsched-hotpath function, checked against the annotations
// by TestHotPathGuardTable. The single guard drives the local engine's
// whole per-chunk cycle — pop, steal, refill, complete — because those
// operations only occur interleaved.
var hotGuards = map[string]func(t *testing.T){
	"(*JobState).Pop":      jobStateCycleGuard,
	"(*JobState).Steal":    jobStateCycleGuard,
	"(*JobState).Complete": jobStateCycleGuard,
}

// TestHotPathGuardTable pins hotGuards to the annotation set.
func TestHotPathGuardTable(t *testing.T) {
	names := make([]string, 0, len(hotGuards))
	for name := range hotGuards {
		names = append(names, name)
	}
	missing, stale, err := hotpath.TableErrors(".", names)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range missing {
		t.Errorf("annotated hot function %s has no alloc guard; add a hotGuards entry", name)
	}
	for _, name := range stale {
		t.Errorf("hotGuards entry %s matches no annotated function; remove it or annotate", name)
	}
}

// TestHotPathAllocGuards runs every guard in the table.
func TestHotPathAllocGuards(t *testing.T) {
	names := make([]string, 0, len(hotGuards))
	for name := range hotGuards {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Run(name, hotGuards[name])
	}
}

// jobStateCycleGuard pins the per-chunk cycle with telemetry disabled
// (a nil bus, the steady-state default for headless runs) at zero
// allocations: pop from the own deque, steal from a sibling, refill
// from the policy, complete — the same interleaving the engine's
// worker loop performs per chunk.
func jobStateCycleGuard(t *testing.T) {
	js, err := NewJobState(JobConfig{
		Scheme:   sched.CSSScheme{K: 4},
		Workload: workload.Uniform{N: 1 << 30},
		Workers:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		a, ok := js.Pop(0)
		if !ok {
			a, ok = js.Steal(0)
		}
		if !ok {
			// Refill the sibling, so the next rounds exercise Steal too.
			if _, _, ok = js.Refill(1, 1, 0, 0); !ok {
				panic("policy drained mid-guard")
			}
			a, _, _ = js.Refill(0, 1, 0, 0)
		}
		js.Complete(0, a, 1, 0)
	}); avg > 0 {
		t.Errorf("pop/steal/refill/complete cycle allocates %.1f objects per op, want 0", avg)
	}
}

// TestLocalRunAllocs pins the per-Run set-up of the local engine: a
// whole p = 2 CSS(4) Run, the shape of the css-local benchmark, with
// telemetry off. The chunk cycle itself is allocation-free (guarded
// above), so this counts the JobState, its deques and lanes, the
// policy, the report and the worker goroutines.
func TestLocalRunAllocs(t *testing.T) {
	l := &Local{Scheme: sched.CSSScheme{K: 4}, Workers: specs(1, 1), Ledger: LedgerOff}
	w := workload.Uniform{N: 1 << 12}
	if avg := testing.AllocsPerRun(20, func() {
		if _, err := l.Run(w, func(int) {}); err != nil {
			t.Fatal(err)
		}
	}); avg > 26 {
		t.Errorf("a p=2 CSS(4) local Run allocates %.1f objects, want <= 26", avg)
	}
}

// TestJobStateLineAlignment: the padding in lane and in steal's
// deques only keeps workers off each other's cache lines if the
// allocations start on a line. A pointer-holding object over 512 bytes
// gets an allocation header that shifts it by eight bytes, which is
// why deques are not folded into lanes; this catches that or any
// other layout change that misaligns them.
func TestJobStateLineAlignment(t *testing.T) {
	for _, p := range []int{1, 2, 3, 8, 33} {
		js, err := NewJobState(JobConfig{
			Scheme:   sched.CSSScheme{K: 4},
			Workload: workload.Uniform{N: 100},
			Workers:  p,
		})
		if err != nil {
			t.Fatal(err)
		}
		if off := uintptr(unsafe.Pointer(&js.lanes[0])) % steal.CacheLine; off != 0 {
			t.Errorf("p=%d: lanes start %d bytes into a cache line", p, off)
		}
		for i, d := range js.deques {
			if off := uintptr(unsafe.Pointer(d)) % steal.CacheLine; off != 0 {
				t.Errorf("p=%d: deque %d starts %d bytes into a cache line", p, i, off)
			}
		}
	}
}
