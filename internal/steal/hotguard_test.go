package steal

import (
	"sort"
	"testing"

	"loopsched/internal/hotpath"
	"loopsched/internal/sched"
)

// hotGuards is this package's alloc-guard table: one entry per
// //lint:loopsched-hotpath function, generated against the annotations
// by TestHotPathGuardTable — annotating a new exported function fails
// that test until a guard lands here. Entries may share a guard when
// one steady-state cycle exercises several hot functions.
var hotGuards = map[string]func(t *testing.T){
	"(*Deque).Push":    dequeOwnerGuard,
	"(*Deque).Pop":     dequeOwnerGuard,
	"(*Deque).Stage":   dequeOwnerGuard,
	"(*Deque).Publish": dequeOwnerGuard,
	"(*Deque).Steal":   dequeStealGuard,
	"(*Deque).Len":     dequeReadGuard,
	"(*Deque).Cap":     dequeReadGuard,
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

// dequeOwnerGuard pins the owner fast paths — push then pop, stage
// then publish — at zero steady-state allocations.
func dequeOwnerGuard(t *testing.T) {
	d := NewDeque(64)
	a := sched.Assignment{Start: 1, Size: 2}
	if n := testing.AllocsPerRun(1000, func() {
		d.Push(a)
		d.Pop()
		d.Stage(0, a)
		d.Stage(1, a)
		d.Publish(2)
		d.Pop()
		d.Pop()
	}); n != 0 {
		t.Fatalf("owner push+pop and stage+publish allocate %.1f/op, want 0", n)
	}
}

// dequeStealGuard pins the thief path at zero allocations too.
func dequeStealGuard(t *testing.T) {
	d := NewDeque(64)
	a := sched.Assignment{Start: 1, Size: 2}
	if n := testing.AllocsPerRun(1000, func() {
		d.Push(a)
		d.Steal()
	}); n != 0 {
		t.Fatalf("push+steal allocates %.1f/op, want 0", n)
	}
}

// dequeReadGuard covers the observer accessors.
func dequeReadGuard(t *testing.T) {
	d := NewDeque(64)
	d.Push(sched.Assignment{Start: 1, Size: 2})
	if n := testing.AllocsPerRun(1000, func() {
		if d.Len() > d.Cap() {
			panic("len exceeds cap")
		}
	}); n != 0 {
		t.Fatalf("Len+Cap allocates %.1f/op, want 0", n)
	}
}
