package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"runtime"
	"time"

	"loopsched/internal/ledger"
	"loopsched/internal/mandelbrot"
	"loopsched/internal/sched"
	"loopsched/internal/wire"
)

// minReps is the fewest repetitions a replay takes even past its time
// share; each replay reports the median repetition.
const minReps = 5

// columnStride picks the columns the Mandelbrot replay renders: every
// columnStride-th column, so the sample spans the whole cost profile.
const columnStride = 8

// replay runs the isolated layer replays with the workload's own
// scheme, N, p and payload size, calling only public functions of the
// layer's package, and splits budget evenly between them. chunks is a
// warm-up Run's chunk count, which sets the records per wire request.
func replay(in *instance, chunks int, spans *spanRecorder, budget time.Duration) (map[string]metric, error) {
	share := budget / 4
	m := map[string]metric{}
	var err error
	spans.timed("replay.sched", func() {
		m["sched.next_ns"] = metric{replaySched(in, share), "ns"}
	})
	spans.timed("replay.ledger", func() {
		var build, claim float64
		build, claim, err = replayLedger(in, share)
		m["ledger.build_us"] = metric{build, "us"}
		m["ledger.claim_ns"] = metric{claim, "ns"}
	})
	if err != nil {
		return nil, err
	}
	spans.timed("replay.wire", func() {
		var rt, allocs float64
		rt, allocs, err = replayWire(in, chunks, share)
		m["wire.roundtrip_ns"] = metric{rt, "ns"}
		m["wire.allocs_per_roundtrip"] = metric{allocs, "count"}
	})
	if err != nil {
		return nil, err
	}
	spans.timed("replay.mandelbrot", func() {
		col, escapes := replayMandelbrot(in, share)
		m["mandelbrot.column_ns"] = metric{col, "ns"}
		m["mandelbrot.escape_iters_per_column"] = metric{escapes, "count"}
	})
	return m, nil
}

// repeat calls f until budget is spent and at least minReps times, and
// returns the median of f's results.
func repeat(budget time.Duration, f func() float64) float64 {
	var xs []float64
	deadline := time.Now().Add(budget)
	for len(xs) < minReps || time.Now().Before(deadline) {
		xs = append(xs, f())
	}
	return median(xs)
}

// schedConfig is the Config the rpc master plans with: the workload's
// N and p, and each worker's ACP as its power.
func schedConfig(in *instance) sched.Config {
	spec := in.spec(nil, nil)
	maxScale := 1
	for _, s := range in.scales {
		maxScale = max(maxScale, s)
	}
	acps := make([]float64, len(in.scales))
	for i, s := range in.scales {
		acps[i] = float64(max(1, spec.ACP.ACP(float64(maxScale)/float64(s), 1)))
	}
	return sched.Config{Iterations: in.def.n, Workers: len(in.scales), Powers: acps}
}

// replaySched drains a fresh policy of the workload's scheme, workers
// asking in turn with their ACP, and returns ns per Policy.Next.
func replaySched(in *instance, budget time.Duration) float64 {
	cfg := schedConfig(in)
	s := in.def.scheme()
	return repeat(budget, func() float64 {
		pol, err := s.NewPolicy(cfg)
		if err != nil {
			return 0
		}
		calls := 0
		start := time.Now()
		for w := 0; ; w = (w + 1) % cfg.Workers {
			calls++
			if _, ok := pol.Next(sched.Request{Worker: w, ACP: cfg.Powers[w]}); !ok {
				break
			}
		}
		return float64(time.Since(start).Nanoseconds()) / float64(calls)
	})
}

// replayLedger times ledger.Build for the workload's scheme and one
// fetch-add plus table lookup per step. A scheme the ledger refuses
// (DTSS is not step-deterministic) has no table: Build times the
// refusal and the claim is the bare fetch-add.
func replayLedger(in *instance, budget time.Duration) (buildUS, claimNS float64, err error) {
	cfg := schedConfig(in)
	s := in.def.scheme()
	table, err := ledger.Build(s, cfg)
	if err != nil && !errors.Is(err, ledger.ErrIneligible) {
		return 0, 0, fmt.Errorf("ledger replay: %w", err)
	}
	buildUS = repeat(budget/2, func() float64 {
		start := time.Now()
		_, _ = ledger.Build(s, cfg) // the outcome is known from the first Build
		return float64(time.Since(start).Nanoseconds()) / 1e3
	})
	steps := cfg.Iterations
	if table != nil {
		steps = table.Steps()
	}
	claimNS = repeat(budget/2, func() float64 {
		var l ledger.Local
		start := time.Now()
		for i := 0; i < steps; i++ {
			step, _ := l.FetchAdd(1) // Local.FetchAdd never fails
			if table != nil {
				if _, ok := table.Chunk(step); !ok {
					break
				}
			}
		}
		return float64(time.Since(start).Nanoseconds()) / float64(steps)
	})
	return buildUS, claimNS, nil
}

// replayWire times request/reply round trips over an in-memory pipe: a
// request carrying one mean chunk's completion records at the
// workload's payload size, answered by a one-grant reply. It returns
// ns and heap allocations (both ends) per round trip.
func replayWire(in *instance, chunks int, budget time.Duration) (ns, allocs float64, err error) {
	perChunk := max(1, in.def.n/max(1, chunks))
	records := make([]wire.Record, perChunk)
	data := make([]byte, in.def.payload)
	for i := range records {
		records[i] = wire.Record{Index: i, Data: data}
	}
	cliEnd, srvEnd := net.Pipe()
	srvDone := make(chan error, 1)
	go func() {
		srvDone <- serveEcho(srvEnd, perChunk)
	}()
	defer func() {
		cliEnd.Close()
		<-srvDone
	}()
	client, err := wire.NewClient(cliEnd)
	if err != nil {
		return 0, 0, err
	}
	req := wire.Request{Worker: 0, ACP: 1, Credits: 1, Results: records}
	var rep wire.Reply
	roundTrip := func() error {
		if err := client.WriteRequest(&req); err != nil {
			return err
		}
		return client.ReadReply(&rep)
	}
	if err := roundTrip(); err != nil { // warm the Conn's scratch buffers
		return 0, 0, fmt.Errorf("wire replay: %w", err)
	}
	const batch = 256
	var allocSamples []float64
	ns = repeat(budget, func() float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		for i := 0; i < batch && err == nil; i++ {
			err = roundTrip()
		}
		d := time.Since(start)
		runtime.ReadMemStats(&after)
		allocSamples = append(allocSamples, float64(after.Mallocs-before.Mallocs)/batch)
		return float64(d.Nanoseconds()) / batch
	})
	if err != nil {
		return 0, 0, fmt.Errorf("wire replay: %w", err)
	}
	return ns, median(allocSamples), nil
}

// serveEcho is the replay's server: it answers every request with one
// grant of size chunk until the client closes the pipe.
func serveEcho(conn net.Conn, chunk int) error {
	br := bufio.NewReader(conn)
	if err := wire.ConsumePreamble(br); err != nil {
		return err
	}
	srv := wire.NewServer(conn, br)
	var req wire.Request
	rep := wire.Reply{Grants: []sched.Assignment{{Start: 0, Size: chunk}}}
	for {
		if err := srv.ReadRequest(&req); err != nil {
			return err
		}
		if err := srv.WriteReply(&rep); err != nil {
			return err
		}
	}
}

// replayMandelbrot times mandelbrot.ShadedColumn over every
// columnStride-th column of the seed's region and returns ns per column
// and the exact escape-iteration count per column over the whole image.
func replayMandelbrot(in *instance, budget time.Duration) (colNS, escapes float64) {
	p := in.params
	colNS = repeat(budget, func() float64 {
		start := time.Now()
		cols := 0
		for c := 0; c < p.Width; c += columnStride {
			mandelbrot.ShadedColumn(p, c)
			cols++
		}
		return float64(time.Since(start).Nanoseconds()) / float64(cols)
	})
	var work float64
	for _, c := range mandelbrot.ColumnCosts(p) {
		work += c
	}
	return colNS, work / float64(p.Width)
}
