package loopsched_test

import (
	"context"
	"sort"
	"testing"

	"loopsched"
	"loopsched/internal/sched"
)

// chunkPair is one granted chunk's [Start, Start+Size) range.
type chunkPair struct{ Start, Size int }

// ledgerChunkSeq runs the spec under a fresh telemetry session, checks
// full iteration coverage, and returns the granted chunk boundaries
// sorted by start — the partition of [0, n) the scheduler produced —
// plus the session's ledger fetch-add total (zero when every grant went
// through the master path).
func ledgerChunkSeq(t *testing.T, spec loopsched.RunSpec) ([]chunkPair, uint64) {
	t.Helper()
	tele, err := loopsched.NewTelemetry(loopsched.TelemetryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tele.Close()
	tr := &loopsched.Trace{}
	spec.Telemetry, spec.Trace = tele, tr

	rep, err := loopsched.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	n := spec.Workload.Len()
	if rep.Iterations != n {
		t.Fatalf("iterations %d, want %d", rep.Iterations, n)
	}
	tele.Flush()

	evs := tr.Events()
	seq := make([]chunkPair, 0, len(evs))
	for _, e := range evs {
		seq = append(seq, chunkPair{e.Start, e.Size})
	}
	sort.Slice(seq, func(i, j int) bool { return seq[i].Start < seq[j].Start })
	// Regardless of which path granted them, the chunks must tile the
	// iteration space exactly: no gap, no overlap.
	next := 0
	for _, c := range seq {
		if c.Start != next || c.Size <= 0 {
			t.Fatalf("chunk sequence does not tile [0,%d): got start=%d size=%d, want start=%d", n, c.Start, c.Size, next)
		}
		next = c.Start + c.Size
	}
	if next != n {
		t.Fatalf("chunk sequence covers [0,%d), want [0,%d)", next, n)
	}
	return seq, tele.Aggregator().Snapshot().LedgerFetches
}

// stepDeterministicSchemes returns every registered scheme that
// declares step-deterministic chunk boundaries — the ledger-eligible
// set the equivalence property must hold for.
func stepDeterministicSchemes(t *testing.T) []loopsched.Scheme {
	t.Helper()
	var out []loopsched.Scheme
	for _, name := range loopsched.SchemeNames() {
		s, err := loopsched.LookupScheme(name)
		if err != nil {
			t.Fatal(err)
		}
		if sched.StepDeterministic(s) {
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		t.Fatal("no step-deterministic schemes registered")
	}
	return out
}

// policyReplaySeq is the reference partition: the scheme's own
// Policy.Next called until it drains, sorted by start. It touches no
// ledger table, so it witnesses the table the runtimes grant from
// instead of sharing its bugs.
func policyReplaySeq(t *testing.T, s loopsched.Scheme, n, workers int) []chunkPair {
	t.Helper()
	pol, err := s.NewPolicy(sched.Config{Iterations: n, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	var seq []chunkPair
	for k := 0; ; k++ {
		a, ok := pol.Next(sched.Request{Worker: k % workers})
		if !ok {
			break
		}
		seq = append(seq, chunkPair{a.Start, a.Size})
	}
	sort.Slice(seq, func(i, j int) bool { return seq[i].Start < seq[j].Start })
	return seq
}

// sameChunks fails the test unless got equals the reference partition.
func sameChunks(t *testing.T, label string, got, want []chunkPair) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s produced %d chunks, Policy.Next replay %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s chunk %d diverged: got %+v, replay %+v", label, i, got[i], want[i])
		}
	}
}

// TestLedgerTransportEquivalence is the ledger's correctness property:
// for every step-deterministic scheme, on every backend that supports
// the ledger, a run with the ledger off and a run with the ledger on
// must both produce chunk boundaries byte-identical to a straight
// Policy.Next replay of the scheme. Workers computing their own chunks
// from a replicated table must be indistinguishable — in the partition
// of the iteration space — from the master handing the chunks out one
// round trip at a time, and both from the policy itself.
func TestLedgerTransportEquivalence(t *testing.T) {
	const n = 3000
	w := loopsched.Uniform{N: n, C: 1}
	kernel := func(i int) []byte { return []byte{byte(i)} }

	backends := []struct {
		name string
		spec func(s loopsched.Scheme, ledger string) loopsched.RunSpec
	}{
		{"local-steal", func(s loopsched.Scheme, ledger string) loopsched.RunSpec {
			return loopsched.RunSpec{
				Scheme: s, Workload: w,
				Backend: loopsched.BackendLocal,
				Workers: runWorkers(), Body: func(i int) {},
				Ledger: ledger,
			}
		}},
		{"rpc-binary", func(s loopsched.Scheme, ledger string) loopsched.RunSpec {
			return loopsched.RunSpec{
				Scheme: s, Workload: w,
				Backend: loopsched.BackendRPC, Workers: runWorkers(),
				Kernel: kernel,
				Ledger: ledger,
			}
		}},
		// Pipelined workers prefetch through the master path with the
		// ledger off; with it on they claim one-sided like serial ones.
		{"rpc-pipelined", func(s loopsched.Scheme, ledger string) loopsched.RunSpec {
			return loopsched.RunSpec{
				Scheme: s, Workload: w,
				Backend: loopsched.BackendRPC, Workers: runWorkers(),
				Kernel: kernel, Pipeline: true,
				Ledger: ledger,
			}
		}},
	}

	for _, b := range backends {
		b := b
		t.Run(b.name, func(t *testing.T) {
			for _, s := range stepDeterministicSchemes(t) {
				s := s
				t.Run(s.Name(), func(t *testing.T) {
					t.Parallel()
					want := policyReplaySeq(t, s, n, len(runWorkers()))
					master, offFetches := ledgerChunkSeq(t, b.spec(s, "off"))
					replica, onFetches := ledgerChunkSeq(t, b.spec(s, "on"))
					if offFetches != 0 {
						t.Errorf("ledger-off run recorded %d ledger fetches", offFetches)
					}
					if onFetches == 0 {
						t.Errorf("ledger-on run recorded no ledger fetches: the ledger never engaged")
					}
					sameChunks(t, "ledger-off run", master, want)
					sameChunks(t, "ledger-on run", replica, want)
				})
			}
		})
	}
}

// TestLedgerIneligibleSchemeFallsBack pins the advisory contract:
// turning the ledger on for a scheme that is not step-deterministic is
// not an error — the run silently stays on the master path and still
// covers the loop.
func TestLedgerIneligibleSchemeFallsBack(t *testing.T) {
	scheme, err := loopsched.LookupScheme("AWF")
	if err != nil {
		t.Fatal(err)
	}
	if sched.StepDeterministic(scheme) {
		t.Fatal("AWF unexpectedly declares step-deterministic boundaries")
	}
	for _, backend := range []struct {
		name string
		spec loopsched.RunSpec
	}{
		{"local-steal", loopsched.RunSpec{
			Scheme: scheme, Workload: loopsched.Uniform{N: 1200, C: 1},
			Backend: loopsched.BackendLocal,
			Workers: runWorkers(), Body: func(i int) {}, Ledger: "on",
		}},
		{"rpc", loopsched.RunSpec{
			Scheme: scheme, Workload: loopsched.Uniform{N: 1200, C: 1},
			Backend: loopsched.BackendRPC, Workers: runWorkers(),
			Kernel: func(i int) []byte { return nil }, Ledger: "on",
		}},
	} {
		backend := backend
		t.Run(backend.name, func(t *testing.T) {
			_, fetches := ledgerChunkSeq(t, backend.spec)
			if fetches != 0 {
				t.Errorf("ineligible scheme recorded %d ledger fetches", fetches)
			}
		})
	}
}

// TestLedgerHierarchyRun drives the two-level RPC runtime with the
// ledger on: each submaster arms a stage-local ledger per super-chunk
// grant, and the run must still tile the iteration space exactly while
// recording ledger activity. (Byte-identical stage boundaries ledger
// vs policy are proven per super-chunk in internal/hier, where the
// stage inputs can be held fixed; end-to-end the root's super-chunk
// splits depend on request timing, so only the tiling is comparable.)
func TestLedgerHierarchyRun(t *testing.T) {
	for _, s := range stepDeterministicSchemes(t) {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			t.Parallel()
			_, fetches := ledgerChunkSeq(t, loopsched.RunSpec{
				Scheme: s, Workload: loopsched.Uniform{N: 3000, C: 1},
				Backend: loopsched.BackendRPC, Workers: runWorkers(),
				Kernel:    func(i int) []byte { return []byte{byte(i)} },
				Hierarchy: &loopsched.Hierarchy{Shards: 2},
				Ledger:    "on",
			})
			if fetches == 0 {
				t.Error("hierarchical ledger-on run recorded no ledger fetches")
			}
		})
	}
}
