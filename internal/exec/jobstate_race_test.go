package exec

import (
	"runtime"
	"sync"
	"testing"

	"loopsched/internal/sched"
	"loopsched/internal/workload"
)

// TestJobStateLiveCounterReads is the regression test for the plain
// steal.Counters fields the scheduler used to read mid-run: a monitor
// polls Counts and WorkerCounters continuously while workers pop,
// steal, refill and complete. With the old plain-int64 tally this is a
// data race the -race runner reports; with AtomicCounters it must be
// silent, and the post-join snapshot must reconcile with the job's
// grant accounting.
func TestJobStateLiveCounterReads(t *testing.T) {
	const n, p = 20000, 4
	js, err := NewJobState(JobConfig{
		Scheme:   sched.GSSScheme{},
		Workload: workload.Uniform{N: n},
		Workers:  p,
	})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var monitor sync.WaitGroup
	monitor.Add(1)
	go func() {
		defer monitor.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = js.Counts()
			for i := 0; i < p; i++ {
				_ = js.WorkerCounters(i)
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for !js.Finished() {
				a, ok := js.Pop(w)
				if !ok {
					a, ok = js.Steal(w)
				}
				if !ok {
					a, _, ok = js.Refill(w, 1, 0, 0)
				}
				if !ok {
					// Nothing visible right now; chunks may still sit in
					// other deques until their owners or thieves drain them.
					runtime.Gosched()
					continue
				}
				js.Complete(w, a, 1, 0)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	monitor.Wait()

	counts := js.Counts()
	if counts.Granted != n || counts.Completed != n {
		t.Fatalf("granted %d, completed %d, want %d each", counts.Granted, counts.Completed, n)
	}
	var pops, steals, refills, refillChunks int64
	for i := 0; i < p; i++ {
		c := js.WorkerCounters(i)
		pops += c.Pops
		steals += c.Steals
		refills += c.Refills
		refillChunks += c.RefillChunks
	}
	if steals != counts.Steals {
		t.Errorf("per-worker steal sum %d, Counts says %d", steals, counts.Steals)
	}
	if got := int(refillChunks); got != counts.Chunks {
		t.Errorf("refill chunk sum %d, policy granted %d chunks", got, counts.Chunks)
	}
	// Every chunk is executed exactly once: as a refill's immediate
	// first chunk, as an owner pop, or as a steal.
	if got := int(pops + steals + refills); got != counts.Chunks {
		t.Errorf("pops %d + steals %d + immediate %d != chunks %d", pops, steals, refills, counts.Chunks)
	}
}

// TestJobStateLedgerFinishIsFinal: on the ledger path a refill whose
// claim lands past the table's end flips drained while an earlier
// claimer may still be booking its valid steps. Finished (and a true
// Complete) must not fire in that window: whenever a worker observes
// the job finished, every iteration has been granted and executed.
func TestJobStateLedgerFinishIsFinal(t *testing.T) {
	const n, p, rounds = 4000, 4, 200
	for r := 0; r < rounds; r++ {
		js, err := NewJobState(JobConfig{
			Scheme:   sched.CSSScheme{K: 8},
			Workload: workload.Uniform{N: n},
			Workers:  p,
			Window:   4,
			Ledger:   LedgerOn,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !js.LedgerActive() {
			t.Fatal("ledger did not arm for CSS")
		}
		var wg sync.WaitGroup
		early := make(chan int64, p)
		for w := 0; w < p; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for {
					a, ok := js.Pop(w)
					if !ok {
						a, ok = js.Steal(w)
					}
					if !ok {
						a, _, ok = js.Refill(w, 1, 0, 0)
					}
					if !ok {
						if js.Finished() {
							if got := js.Completed(); got != n {
								early <- got
							}
							return
						}
						runtime.Gosched()
						continue
					}
					if js.Complete(w, a, 1, 0) {
						if got := js.Completed(); got != n {
							early <- got
						}
					}
				}
			}(w)
		}
		wg.Wait()
		close(early)
		for got := range early {
			t.Fatalf("round %d: job observed finished with %d of %d iterations executed", r, got, n)
		}
	}
}
