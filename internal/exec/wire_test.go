package exec

import (
	"bytes"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"loopsched/internal/sched"
	"loopsched/internal/telemetry"
	"loopsched/internal/wire"
)

// grantCollector records every granted chunk, in publish order.
type grantCollector struct {
	mu     sync.Mutex
	grants []sched.Assignment
}

func (g *grantCollector) BeginRun(telemetry.RunMeta) {}
func (g *grantCollector) Close() error               { return nil }
func (g *grantCollector) OnEvent(e telemetry.Event) {
	if e.Kind == telemetry.ChunkGranted || e.Kind == telemetry.ChunkPrefetched {
		g.mu.Lock()
		g.grants = append(g.grants, sched.Assignment{Start: e.Start, Size: e.Size})
		g.mu.Unlock()
	}
}

// grantSequence runs one serial worker to completion and returns the
// granted chunk sequence the master published. With the ledger on the
// worker holds a table replica and claims its steps one-sided.
func grantSequence(t *testing.T, s sched.Scheme, n int, mode LedgerMode) []sched.Assignment {
	t.Helper()
	bus := telemetry.NewBus(0)
	col := &grantCollector{}
	bus.Subscribe(col)

	m, err := NewMaster(s, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	m.SetTelemetry(bus)
	if err := m.SetLedger(mode); err != nil {
		t.Fatal(err)
	}
	if m.LedgerActive() != (mode == LedgerOn) {
		t.Fatalf("%s: LedgerActive = %v with ledger %s", s.Name(), m.LedgerActive(), mode)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := m.Serve(l); err != nil {
		t.Fatal(err)
	}

	runWorkers(t, l.Addr().String(), []Worker{{ID: 0, Kernel: intKernel, LedgerTable: m.Ledger()}})
	results, rep, err := m.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Iterations != n {
		t.Fatalf("%s ledger %s: iterations = %d, want %d", s.Name(), mode, rep.Iterations, n)
	}
	for i, r := range results {
		if !bytes.Equal(r, intKernel(i)) {
			t.Fatalf("%s ledger %s: result %d corrupted", s.Name(), mode, i)
		}
	}
	if err := bus.Close(); err != nil {
		t.Fatal(err)
	}
	return col.grants
}

// policyReplay is the reference chunk sequence: the scheme's own
// Policy.Next called until it drains, with no ledger table involved.
func policyReplay(t *testing.T, s sched.Scheme, n, workers int) []sched.Assignment {
	t.Helper()
	pol, err := s.NewPolicy(sched.Config{Iterations: n, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	var seq []sched.Assignment
	for k := 0; ; k++ {
		a, ok := pol.Next(sched.Request{Worker: k % workers})
		if !ok {
			return seq
		}
		seq = append(seq, a)
	}
}

// TestGrantSequenceMatchesPolicyReplay is the grant-path equivalence
// property: for every step-deterministic scheme and a single serial
// worker, the master's request/grant path (ledger off) and the
// one-sided claim path (ledger on) must each grant exactly the chunk
// sequence a straight Policy.Next replay produces — same starts, same
// sizes, same order. Both paths read the master's step table, so the
// replay is the independent witness that the table itself is right;
// any framing or batching bug that loses, reorders or resizes a grant
// shows up here too.
func TestGrantSequenceMatchesPolicyReplay(t *testing.T) {
	const n = 700
	for _, name := range sched.Names() {
		scheme, err := sched.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if !sched.StepDeterministic(scheme) {
			continue
		}
		want := policyReplay(t, scheme, n, 1)
		next := 0
		for _, g := range want {
			if g.Start != next || g.Size <= 0 {
				t.Fatalf("%s: replay grant %+v does not continue at %d", name, g, next)
			}
			next = g.End()
		}
		if next != n {
			t.Fatalf("%s: replay covers %d iterations, want %d", name, next, n)
		}
		for _, mode := range []LedgerMode{LedgerOff, LedgerOn} {
			got := grantSequence(t, scheme, n, mode)
			if len(got) != len(want) {
				t.Fatalf("%s ledger %s: granted %d chunks, replay %d", name, mode, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s ledger %s: grant %d = %+v, replay %+v", name, mode, i, got[i], want[i])
				}
			}
		}
	}
}

// spanRecorder wraps a master's batch handler and records, in grant
// order, every assignment and every span id the handler put on the
// wire-level reply.
type spanRecorder struct {
	mu     sync.Mutex
	m      *Master
	grants []sched.Assignment
	spans  []uint64
}

func (r *spanRecorder) batch(args ChunkArgs, credits int, rep *wire.Reply) error {
	err := r.m.nextBatch(args, credits, rep)
	r.mu.Lock()
	r.grants = append(r.grants, rep.Grants...)
	r.spans = append(r.spans, rep.Spans...)
	r.mu.Unlock()
	return err
}

// startRecordedMaster serves a master exactly as Master.Serve does,
// but routes every request through a spanRecorder.
func startRecordedMaster(t *testing.T, n int, withBus bool) (*spanRecorder, *Master, string, func()) {
	t.Helper()
	m, err := NewMaster(sched.TSSScheme{}, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	var bus *telemetry.Bus
	if withBus {
		bus = telemetry.NewBus(0)
		m.SetTelemetry(bus)
	}
	rec := &spanRecorder{m: m}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go ServeConn(conn, m.bus, 0, rec.batch, nil)
		}
	}()
	stop := func() {
		l.Close()
		if bus != nil {
			bus.Close()
		}
	}
	return rec, m, l.Addr().String(), stop
}

// TestSpanTaggingPreservesGrantSequence is the span-equivalence
// property from the tracing PR: turning telemetry (and with it span
// tagging) on must not change the granted chunk sequence, and spans
// must be entirely absent when telemetry is off (the wire package
// separately proves span-free frames are byte-identical to v1).
func TestSpanTaggingPreservesGrantSequence(t *testing.T) {
	const n = 500
	var seqs [2][]sched.Assignment
	var spans [2][]uint64
	for i, withBus := range []bool{false, true} {
		rec, m, addr, stop := startRecordedMaster(t, n, withBus)
		runWorkers(t, addr, []Worker{{ID: 0, Kernel: intKernel}})
		_, rep, err := m.Wait()
		stop()
		if err != nil {
			t.Fatalf("bus=%v: %v", withBus, err)
		}
		if rep.Iterations != n {
			t.Fatalf("bus=%v: iterations = %d, want %d", withBus, rep.Iterations, n)
		}
		seqs[i], spans[i] = rec.grants, rec.spans
	}
	if len(seqs[0]) == 0 || len(seqs[0]) != len(seqs[1]) {
		t.Fatalf("granted %d chunks without bus, %d with", len(seqs[0]), len(seqs[1]))
	}
	for i := range seqs[0] {
		if seqs[0][i] != seqs[1][i] {
			t.Fatalf("grant %d differs with telemetry: off %+v, on %+v", i, seqs[0][i], seqs[1][i])
		}
	}
	if len(spans[0]) != 0 {
		t.Fatalf("%d spans attached with telemetry off, want 0", len(spans[0]))
	}
	if len(spans[1]) != len(seqs[1]) {
		t.Fatalf("%d spans for %d grants with telemetry on", len(spans[1]), len(seqs[1]))
	}
	for i, g := range seqs[1] {
		if want := telemetry.SpanID(0, g.Start); spans[1][i] != want || spans[1][i] == 0 {
			t.Fatalf("span %d = %#x, want %#x (grant %+v)", i, spans[1][i], want, g)
		}
	}
}

// TestRPCWireCreditWindow runs the batched-grant protocol in anger: a
// wide credit window, pipelined heterogeneous workers, and a fixed-chunk
// scheme that exercises the master's lock-free step-table path. Every result
// must arrive exactly once.
func TestRPCWireCreditWindow(t *testing.T) {
	const n = 900
	for _, window := range []int{2, 8} {
		m, addr, stop := startMaster(t, sched.CSSScheme{K: 5}, n, 3)
		m.SetWindow(window)

		runWorkers(t, addr, []Worker{
			{ID: 0, Kernel: intKernel, Window: window, Pipeline: true},
			{ID: 1, Kernel: intKernel, Window: window, Pipeline: true, WorkScale: 2},
			{ID: 2, Kernel: intKernel, Window: window},
		})
		results, rep, err := m.Wait()
		stop()
		if err != nil {
			t.Fatalf("window %d: %v", window, err)
		}
		if rep.Iterations != n {
			t.Fatalf("window %d: iterations = %d", window, rep.Iterations)
		}
		for i, r := range results {
			if !bytes.Equal(r, intKernel(i)) {
				t.Fatalf("window %d: result %d corrupted", window, i)
			}
		}
	}
}

// TestMixedTransportsOneListener: one listener serves both worker
// protocols in the same run — a worker holding a ledger replica that
// claims its steps one-sided, and a replica-less pipelined worker on
// the batched request/grant dialogue. Every iteration must be computed
// and delivered exactly once.
func TestMixedTransportsOneListener(t *testing.T) {
	const n = 600
	m, addr, stop := startLedgerMaster(t, sched.FSSScheme{}, n, 2)
	defer stop()
	if m.Ledger() == nil {
		t.Fatal("ledger did not arm for FSS")
	}

	counts := make([]int32, n)
	k := countingKernel(counts)
	runWorkers(t, addr, []Worker{
		{ID: 0, Kernel: k, Window: 2, LedgerTable: m.Ledger()},
		{ID: 1, Kernel: k, Window: 2, Pipeline: true},
	})
	results, rep, err := m.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Iterations != n {
		t.Fatalf("iterations = %d", rep.Iterations)
	}
	for i, r := range results {
		if !bytes.Equal(r, intKernel(i)) {
			t.Fatalf("result %d corrupted", i)
		}
		if c := atomic.LoadInt32(&counts[i]); c != 1 {
			t.Errorf("iteration %d computed %d times, want 1", i, c)
		}
	}
}

// TestServeDropsForeignStream: a connection that does not open with the
// wire preamble (a gob client from an old build, say) is closed without
// a reply, and the master keeps serving real workers on the listener.
func TestServeDropsForeignStream(t *testing.T) {
	const n = 100
	m, addr, stop := startMaster(t, sched.TSSScheme{}, n, 1)
	defer stop()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{0x0d, 0xff, 0x81, 0x03, 0x01, 0x01}); err != nil {
		t.Fatal(err)
	}
	var buf [1]byte
	if k, err := conn.Read(buf[:]); err == nil {
		t.Fatalf("foreign stream got %d reply bytes, want the connection dropped", k)
	}

	runWorkers(t, addr, []Worker{{ID: 0, Kernel: intKernel}})
	if _, rep, err := m.Wait(); err != nil || rep.Iterations != n {
		t.Fatalf("run after foreign stream: %v (iterations %d)", err, rep.Iterations)
	}
}
