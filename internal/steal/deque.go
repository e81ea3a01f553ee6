// Package steal is the lock-free substrate of the work-stealing local
// runtime: a bounded Chase–Lev deque of pre-sliced chunk assignments
// per worker, plus cache-line-padded per-worker counters. The owner
// pushes and pops at the bottom (LIFO, so the hottest chunk stays
// cache-warm and the fast path is two atomic loads and a store);
// thieves steal from the top (FIFO, so they take the oldest — and for
// decreasing-chunk schemes the largest — work, amortising the steal).
//
// The algorithm is the classic Chase & Le (SPAA 2005) dynamic circular
// deque, restricted to a fixed-capacity ring: the local executor
// refills a worker's deque with at most a credit-window of chunks at a
// time, so the ring never needs to grow and push can simply report
// "full". Two deviations keep the Go race detector honest without
// giving up the lock-freedom:
//
//   - Every slot field is accessed atomically. A thief may read a slot
//     that the owner is concurrently overwriting after a wrap-around,
//     but the overwrite is only permitted once top has advanced past
//     the thief's snapshot, so the thief's CompareAndSwap on top fails
//     and the torn value is discarded. Atomic field access makes that
//     benign race invisible to -race and well-defined under the Go
//     memory model.
//   - The thief-written top sits alone on the deque's leading cache
//     line; bottom and the ring header follow on the owner's line, and
//     NewDeque pads that line out, so a thief hammering one worker's
//     top never false-shares with the owner's bottom or with whatever
//     is allocated next.
package steal

import (
	"sync/atomic"
	"unsafe"

	"loopsched/internal/sched"
)

// CacheLine is the padding granularity. 128 bytes covers the adjacent-
// line prefetcher on current x86 parts as well as the 64-byte line.
const CacheLine = 128

// slot holds one assignment with atomically accessed fields. The two
// fields are not read as a unit: a torn (start, size) pair can only be
// observed by a thief whose subsequent CAS on top is guaranteed to
// fail, so the pair is never used.
type slot struct {
	start atomic.Int64
	size  atomic.Int64
}

// MinCapacity is the smallest ring a Deque will allocate.
const MinCapacity = 8

// Deque is one worker's bounded chunk deque. The zero value is not
// usable; construct with NewDeque. Push and Pop may be called only by
// the owning worker; Steal by any goroutine.
type Deque struct {
	top    atomic.Int64 // next index a thief reads
	_      [CacheLine - 8]byte
	bottom atomic.Int64 // next index the owner writes
	mask   int64
	slots  []slot
}

// paddedDeque ends a Deque on a line boundary. At 256 bytes it is a
// small object in the 256-byte size class, whose objects start on line
// boundaries, so top and bottom each own a whole line.
type paddedDeque struct {
	Deque
	_ [CacheLine - unsafe.Sizeof(Deque{})%CacheLine]byte
}

// NewDeque builds a deque holding at least capacity assignments
// (rounded up to a power of two, minimum MinCapacity).
func NewDeque(capacity int) *Deque {
	n := MinCapacity
	for n < capacity {
		n <<= 1
	}
	d := new(paddedDeque)
	d.mask = int64(n - 1)
	d.slots = make([]slot, n)
	return &d.Deque
}

// Cap returns the ring capacity.
//
//lint:loopsched-hotpath
func (d *Deque) Cap() int { return len(d.slots) }

// Len returns a point-in-time size estimate (exact when only the owner
// is active).
//
//lint:loopsched-hotpath
func (d *Deque) Len() int {
	n := d.bottom.Load() - d.top.Load()
	if n < 0 {
		return 0
	}
	return int(n)
}

// Push appends an assignment at the owner's end. It reports false when
// the ring is full; the owner then executes the chunk directly instead
// of queueing it. Owner-only.
//
//lint:loopsched-hotpath
func (d *Deque) Push(a sched.Assignment) bool {
	if d.bottom.Load()-d.top.Load() >= int64(len(d.slots)) {
		return false
	}
	d.Stage(0, a)
	d.Publish(1)
	return true
}

// Stage writes a into the i-th slot past bottom without making it
// visible: Pop and Steal see staged slots only once Publish moves
// bottom over them. An owner can so fill its deque while it holds
// another lock and hand the chunks to thieves after releasing it.
// Owner-only; the caller keeps i below Cap() - Len(). A thief still
// reading a recycled slot fails its CAS on top, exactly as after a
// Push (see the package doc).
//
//lint:loopsched-hotpath
func (d *Deque) Stage(i int, a sched.Assignment) {
	s := &d.slots[(d.bottom.Load()+int64(i))&d.mask]
	s.start.Store(int64(a.Start))
	s.size.Store(int64(a.Size))
}

// Publish makes the first n staged slots visible to Pop and Steal
// with one store. Owner-only.
//
//lint:loopsched-hotpath
func (d *Deque) Publish(n int) {
	d.bottom.Store(d.bottom.Load() + int64(n))
}

// Pop removes the most recently pushed assignment (LIFO). It reports
// false when the deque is empty or a thief won the race for the last
// element. Owner-only.
//
//lint:loopsched-hotpath
func (d *Deque) Pop() (sched.Assignment, bool) {
	b := d.bottom.Load() - 1
	d.bottom.Store(b)
	t := d.top.Load()
	if t > b {
		// Empty: restore bottom and bail.
		d.bottom.Store(t)
		return sched.Assignment{}, false
	}
	s := &d.slots[b&d.mask]
	a := sched.Assignment{Start: int(s.start.Load()), Size: int(s.size.Load())}
	if t == b {
		// Last element: race thieves for it through top.
		won := d.top.CompareAndSwap(t, t+1)
		d.bottom.Store(t + 1)
		if !won {
			return sched.Assignment{}, false
		}
	}
	return a, true
}

// Steal removes the oldest assignment (FIFO). It reports false when
// the deque is empty. Safe for any goroutine, concurrently with the
// owner and other thieves.
//
//lint:loopsched-hotpath
func (d *Deque) Steal() (sched.Assignment, bool) {
	for {
		t := d.top.Load()
		b := d.bottom.Load()
		if t >= b {
			return sched.Assignment{}, false
		}
		s := &d.slots[t&d.mask]
		a := sched.Assignment{Start: int(s.start.Load()), Size: int(s.size.Load())}
		if d.top.CompareAndSwap(t, t+1) {
			// The CAS proves the slot was not recycled between the read
			// and here (a recycling push requires top > t first), so the
			// pair is consistent.
			return a, true
		}
		// Lost to another thief or the owner's last-element pop; the
		// value may be torn — discard and retry from fresh indices.
	}
}

// Counters is one worker's event tally as a plain value snapshot.
// The live tally is an AtomicCounters; this type is what Snapshot
// materialises for reporting once no concurrent writer matters.
type Counters struct {
	// Pops counts chunks the owner took from its own deque.
	Pops int64
	// Steals counts chunks this worker stole from victims.
	Steals int64
	// FailedSteals counts full victim scans that found nothing.
	FailedSteals int64
	// Refills counts trips to the scheme policy under the refill lock.
	Refills int64
	// RefillChunks counts chunks those refills returned.
	RefillChunks int64
}

// AtomicCounters is the live form of Counters: each field is written
// by its owning worker and may be read at any moment by an observer
// (a scheduler snapshotting a running job's accounting), so every
// access is atomic — the atomic.Int64 method types make a plain mixed
// access unrepresentable, which is the discipline the
// atomicdiscipline analyzer enforces for function-style sites. The
// struct is unpadded: its embedder places it among other words the
// same worker writes (exec pads one per worker alongside its latency
// histograms).
type AtomicCounters struct {
	Pops         atomic.Int64
	Steals       atomic.Int64
	FailedSteals atomic.Int64
	Refills      atomic.Int64
	RefillChunks atomic.Int64
}

// Snapshot reads the tally atomically field by field. The result is
// not a consistent cross-field cut — fields advance independently —
// but each field is a valid count at some moment during the call,
// which is what live reporting needs.
func (c *AtomicCounters) Snapshot() Counters {
	return Counters{
		Pops:         c.Pops.Load(),
		Steals:       c.Steals.Load(),
		FailedSteals: c.FailedSteals.Load(),
		Refills:      c.Refills.Load(),
		RefillChunks: c.RefillChunks.Load(),
	}
}
