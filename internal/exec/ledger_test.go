package exec

import (
	"bytes"
	"net"
	"sync/atomic"
	"testing"

	"loopsched/internal/sched"
)

// startLedgerMaster is startMaster with the ledger armed before Serve
// (SetLedger's contract — the serve loop reads the table unlocked).
func startLedgerMaster(t *testing.T, s sched.Scheme, iterations, workers int) (*Master, string, func()) {
	t.Helper()
	m, err := NewMaster(s, iterations, workers)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetLedger(LedgerOn); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Serve(l); err != nil {
		t.Fatal(err)
	}
	return m, l.Addr().String(), func() { l.Close() }
}

// TestLedgerMixedTransportsOneListener runs the fetch-and-add ledger in
// a mixed fleet on one listener: a worker holding a table replica that
// claims steps with one-sided FetchAdd frames, and a worker without a
// replica whose grants come off the same step counter through the
// master's batched request/grant path. Every iteration must be
// computed and arrive exactly once, and the chunk tally must equal the
// table's step count.
func TestLedgerMixedTransportsOneListener(t *testing.T) {
	const n = 900
	for _, scheme := range []sched.Scheme{sched.TSSScheme{}, sched.CSSScheme{K: 7}, sched.GSSScheme{}} {
		t.Run(scheme.Name(), func(t *testing.T) {
			m, addr, stop := startLedgerMaster(t, scheme, n, 2)
			defer stop()
			if !m.LedgerActive() {
				t.Fatalf("ledger did not arm for step-deterministic scheme %s", scheme.Name())
			}

			counts := make([]int32, n)
			k := countingKernel(counts)
			runWorkers(t, addr, []Worker{
				{ID: 0, Kernel: k, Window: 2, LedgerTable: m.Ledger()},
				{ID: 1, Kernel: k, Window: 2},
			})
			results, rep, err := m.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if rep.Iterations != n {
				t.Fatalf("iterations = %d, want %d", rep.Iterations, n)
			}
			if want := m.Ledger().Steps(); rep.Chunks != want {
				t.Fatalf("chunks = %d, want the table's %d steps granted exactly once", rep.Chunks, want)
			}
			for i, r := range results {
				if !bytes.Equal(r, intKernel(i)) {
					t.Fatalf("result %d corrupted: %v", i, r)
				}
				if c := atomic.LoadInt32(&counts[i]); c != 1 {
					t.Errorf("iteration %d computed %d times, want 1", i, c)
				}
			}
		})
	}
}

// TestLedgerAllWireWorkers is the pure one-sided configuration: every
// worker holds a table replica, so after the hello deposits the master
// only ever sees FetchAdd claims and no-reply completion deposits.
func TestLedgerAllWireWorkers(t *testing.T) {
	const n = 1200
	m, addr, stop := startLedgerMaster(t, sched.FSSScheme{}, n, 3)
	defer stop()
	tab := m.Ledger()
	if tab == nil {
		t.Fatal("ledger did not arm for FSS")
	}

	runWorkers(t, addr, []Worker{
		{ID: 0, Kernel: intKernel, Window: 2, LedgerTable: tab},
		{ID: 1, Kernel: intKernel, Window: 4, LedgerTable: tab, WorkScale: 2},
		{ID: 2, Kernel: intKernel, Window: 1, LedgerTable: tab},
	})
	results, rep, err := m.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Iterations != n {
		t.Fatalf("iterations = %d, want %d", rep.Iterations, n)
	}
	if rep.Chunks != tab.Steps() {
		t.Fatalf("chunks = %d, want %d", rep.Chunks, tab.Steps())
	}
	for i, r := range results {
		if !bytes.Equal(r, intKernel(i)) {
			t.Fatalf("result %d corrupted: %v", i, r)
		}
	}
}

// TestLedgerIneligibleAdvisory pins SetLedger's advisory contract on
// the master: "on" for a feedback scheme is not an error, the master
// simply stays on the request/grant path.
func TestLedgerIneligibleAdvisory(t *testing.T) {
	m, err := NewMaster(sched.AWFScheme{}, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetLedger(LedgerOn); err != nil {
		t.Fatal(err)
	}
	if m.LedgerActive() {
		t.Fatal("ledger armed for a feedback scheme")
	}
	if err := m.SetLedger("sideways"); err == nil {
		t.Fatal("unknown ledger mode accepted")
	}
}
