package steal

import (
	"sync"
	"sync/atomic"
	"testing"

	"loopsched/internal/sched"
)

func TestNewDequeCapacity(t *testing.T) {
	for _, tc := range []struct{ want, cap int }{
		{0, MinCapacity}, {1, MinCapacity}, {8, 8}, {9, 16}, {64, 64}, {65, 128},
	} {
		if got := NewDeque(tc.want).Cap(); got != tc.cap {
			t.Errorf("NewDeque(%d).Cap() = %d, want %d", tc.want, got, tc.cap)
		}
	}
}

func TestDequeLIFOPopFIFOSteal(t *testing.T) {
	d := NewDeque(8)
	for i := 0; i < 4; i++ {
		if !d.Push(sched.Assignment{Start: i * 10, Size: 10}) {
			t.Fatalf("Push %d failed on non-full deque", i)
		}
	}
	if n := d.Len(); n != 4 {
		t.Fatalf("Len = %d, want 4", n)
	}
	// Owner pops the newest.
	if a, ok := d.Pop(); !ok || a.Start != 30 {
		t.Fatalf("Pop = %+v, %v; want Start 30", a, ok)
	}
	// Thief steals the oldest.
	if a, ok := d.Steal(); !ok || a.Start != 0 {
		t.Fatalf("Steal = %+v, %v; want Start 0", a, ok)
	}
	if a, ok := d.Steal(); !ok || a.Start != 10 {
		t.Fatalf("Steal = %+v, %v; want Start 10", a, ok)
	}
	if a, ok := d.Pop(); !ok || a.Start != 20 {
		t.Fatalf("Pop = %+v, %v; want Start 20", a, ok)
	}
	if _, ok := d.Pop(); ok {
		t.Fatal("Pop on empty deque reported ok")
	}
	if _, ok := d.Steal(); ok {
		t.Fatal("Steal on empty deque reported ok")
	}
}

func TestDequePushFull(t *testing.T) {
	d := NewDeque(MinCapacity)
	for i := 0; i < d.Cap(); i++ {
		if !d.Push(sched.Assignment{Start: i, Size: 1}) {
			t.Fatalf("Push %d failed below capacity", i)
		}
	}
	if d.Push(sched.Assignment{Start: 99, Size: 1}) {
		t.Fatal("Push succeeded on a full ring")
	}
	// Freeing one slot at the top re-admits a push (ring wrap-around).
	if _, ok := d.Steal(); !ok {
		t.Fatal("Steal failed on full deque")
	}
	if !d.Push(sched.Assignment{Start: 99, Size: 1}) {
		t.Fatal("Push failed after a steal freed a slot")
	}
}

// TestDequeStagePublish: staged slots stay invisible to Pop, Steal and
// Len until Publish, which releases them in stage order.
func TestDequeStagePublish(t *testing.T) {
	d := NewDeque(8)
	d.Stage(0, sched.Assignment{Start: 0, Size: 10})
	d.Stage(1, sched.Assignment{Start: 10, Size: 10})
	if n := d.Len(); n != 0 {
		t.Fatalf("Len = %d before Publish, want 0", n)
	}
	if a, ok := d.Steal(); ok {
		t.Fatalf("Steal saw staged %+v before Publish", a)
	}
	if a, ok := d.Pop(); ok {
		t.Fatalf("Pop saw staged %+v before Publish", a)
	}
	d.Publish(2)
	if a, ok := d.Steal(); !ok || a.Start != 0 {
		t.Fatalf("Steal = %+v, %v; want Start 0", a, ok)
	}
	if a, ok := d.Pop(); !ok || a.Start != 10 {
		t.Fatalf("Pop = %+v, %v; want Start 10", a, ok)
	}
}

// TestDequeStress hammers one owner (push/pop) against many thieves
// under -race: every pushed assignment must be consumed exactly once,
// with no torn (start, size) pairs observed.
func TestDequeStress(t *testing.T) {
	const (
		thieves = 4
		total   = 200000
	)
	d := NewDeque(64)
	// Each assignment i carries Size = i+1 so a torn pair is detectable.
	taken := make([]atomic.Int32, total)
	check := func(a sched.Assignment) {
		if a.Size != a.Start+1 {
			t.Errorf("torn read: %+v", a)
		}
		if n := taken[a.Start].Add(1); n != 1 {
			t.Errorf("assignment %d consumed %d times", a.Start, n)
		}
	}

	var wg sync.WaitGroup
	var done atomic.Bool
	for i := 0; i < thieves; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				if a, ok := d.Steal(); ok {
					check(a)
				}
			}
			// Final drain: the owner may have exited with work queued.
			for {
				a, ok := d.Steal()
				if !ok {
					return
				}
				check(a)
			}
		}()
	}

	next := 0
	for next < total {
		if d.Push(sched.Assignment{Start: next, Size: next + 1}) {
			next++
			continue
		}
		// Full: act like a worker and pop one.
		if a, ok := d.Pop(); ok {
			check(a)
		}
	}
	// Owner drains roughly half of the leftovers, racing the thieves
	// for the tail.
	for i := 0; i < d.Cap()/2; i++ {
		if a, ok := d.Pop(); ok {
			check(a)
		}
	}
	done.Store(true)
	wg.Wait()

	for i := range taken {
		if n := taken[i].Load(); n != 1 {
			t.Fatalf("assignment %d consumed %d times, want 1", i, n)
		}
	}
}

// The push/pop and steal alloc guards live in hotguard_test.go,
// generated from the //lint:loopsched-hotpath annotations.
