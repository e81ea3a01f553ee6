package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"loopsched"
	"loopsched/internal/telemetry"
)

// runsShare is the part of a traced invocation's budget spent on
// alternating untraced and traced Runs; the rest goes to the isolated
// layer replays.
const runsShare = 0.75

// minTraced is the fewest traced Runs (each paired with an untraced
// one) a traced invocation takes.
const minTraced = 3

// sumTolerance and sumSlack (per worker) are how far Σ_w
// (comm+wait+comp+idle) may exceed p · makespan before a traced Run
// fails reconciliation: an allowance for the rounding of summing many
// short intervals read from separate clocks.
const (
	sumTolerance = 0.02
	sumSlack     = 2 * time.Millisecond
)

// ringSize sizes the telemetry ring to hold half a Run's events, so the
// drainer can fall that far behind without dropping. A chunk publishes
// about 7 events on rpc (request, grant, completion and two frames each
// way) and 3 on the local runtime; a ring of a whole css-local Run
// would take 110 MiB.
func ringSize(backend loopsched.Backend, chunks int) int {
	perChunk := 8
	if backend == loopsched.BackendLocal {
		perChunk = 3
	}
	return max(telemetry.DefaultBufferSize, perChunk*chunks/2)
}

// perLayer runs the traced invocation: set-up, then untraced and
// traced Runs in alternation (so drift hits both alike), then the
// isolated layer replays. A traced Run attaches a telemetry session
// and wraps only the caller-supplied kernel — never the scheme, which
// would move SS off the master's fixed-chunk path and the ledger off
// its step-deterministic table.
func perLayer(ctx context.Context, def workloadDef, seed int64, budget time.Duration, spans *spanRecorder) (result, error) {
	in, su, err := setup(ctx, def, seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", def.name, err)
		return result{Correct: false, Attempted: 1, Failed: 1, Metrics: map[string]metric{}}, nil
	}
	tele, err := loopsched.NewTelemetry(loopsched.TelemetryOptions{
		BufferSize: ringSize(def.backend, su.chunks),
	})
	if err != nil {
		return result{}, err
	}
	defer tele.Close()

	runtime.GC()
	var (
		untraced []runSample
		traced   []tracedRun
		failed   int
	)
	stride := max(1, def.n/4096)
	deadline := time.Now().Add(time.Duration(runsShare * float64(budget)))
	for len(traced) < minTraced || time.Now().Before(deadline) {
		s := measured(ctx, in)
		untraced = append(untraced, s)
		if !s.ok {
			failed++
		}
		tr := tracedOnce(ctx, in, tele, spans, stride)
		traced = append(traced, tr)
		if tr.err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s: traced run failed: %v\n", def.name, tr.err)
		}
	}
	tele.Flush()
	snap := tele.Aggregator().Snapshot()

	m := layerMetrics(in, snap, traced, untraced, spans, stride)
	reconciled := 1.0
	if err := reconcile(snap, traced, string(def.backend)); err != nil {
		reconciled = 0
		fmt.Fprintf(os.Stderr, "perfbench: %s: traced numbers invalid: %v\n", def.name, err)
	}
	m["telemetry.reconciled"] = metric{reconciled, "count"}
	rep, err := replay(in, su.chunks, spans, time.Duration((1-runsShare)*float64(budget)))
	if err != nil {
		return result{}, err
	}
	for k, v := range rep {
		m[k] = v
	}
	attempted := len(untraced) + len(traced)
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m, Runs: untraced, Setup: su}, nil
}

// tracedRun is one traced Run's report and wall time.
type tracedRun struct {
	rep  loopsched.Report
	wall float64
	err  error
}

// tracedOnce runs one Run with telemetry attached and a span around the
// Run and around every stride-th index's kernel calls.
func tracedOnce(ctx context.Context, in *instance, tele *loopsched.Telemetry, spans *spanRecorder, stride int) tracedRun {
	id := spans.newID()
	spec := in.spec(tele, func(k loopsched.Kernel) loopsched.Kernel {
		return spans.wrapKernel(k, id, stride)
	})
	start := time.Now()
	rep, wall, runErr := in.execute(ctx, spec)
	spans.add(span{Name: "run", ID: id, Start: start, End: start.Add(wall)})
	return tracedRun{rep: rep, wall: wall.Seconds(), err: in.verify(rep, runErr)}
}

// accounted is Σ_w (comm+wait+comp+idle) over p · makespan: the share
// of the workers' capacity the report's breakdown accounts for.
func (tr tracedRun) accounted() float64 {
	var sum float64
	for _, t := range tr.rep.PerWorker {
		sum += t.Total()
	}
	return sum / (float64(len(tr.rep.PerWorker)) * tr.wall)
}

// reconcile checks that the traced figures can be trusted: no dropped
// events; per Run, Σ_w (comm+wait+comp+idle) ≤ p · makespan within
// sumTolerance and sumSlack; and across Runs, grants, queue-wait
// samples and compute samples each equal Σ Report.Chunks, and ledger
// RTT samples equal fetch-adds. A failure marks the workload's traced
// numbers invalid; it does not fail the Run, whose outputs were
// checked on their own.
func reconcile(snap telemetry.Snapshot, traced []tracedRun, backend string) error {
	if snap.Dropped != 0 {
		return fmt.Errorf("telemetry dropped %d events", snap.Dropped)
	}
	chunks := 0
	for _, tr := range traced {
		chunks += tr.rep.Chunks
		slack := sumSlack.Seconds() / tr.wall
		if a := tr.accounted(); a > 1+sumTolerance+slack {
			return fmt.Errorf("per-worker comm+wait+comp+idle sum to %.3f × p·makespan (tolerance %.2f)", a, sumTolerance)
		}
	}
	h := snap.Hists[backend]
	switch {
	case int(snap.ChunksGranted) != chunks:
		return fmt.Errorf("telemetry saw %d grants, reports say %d chunks", snap.ChunksGranted, chunks)
	case int(h.QueueWait.Count) != chunks:
		return fmt.Errorf("queue-wait histogram counted %d, reports say %d chunks", h.QueueWait.Count, chunks)
	case int(h.Comp.Count) != chunks:
		return fmt.Errorf("compute histogram counted %d, reports say %d chunks", h.Comp.Count, chunks)
	case h.LedgerFetch.Count != snap.LedgerFetches:
		return fmt.Errorf("ledger RTT histogram counted %d, %d fetch-adds", h.LedgerFetch.Count, snap.LedgerFetches)
	}
	return nil
}

// layerMetrics derives the per-layer figures of the traced and
// untraced Runs. Times from telemetry and reports are summed over all
// traced Runs and divided by their chunks; proc figures come from the
// untraced Runs, which carry no telemetry drainer of their own.
func layerMetrics(in *instance, snap telemetry.Snapshot, traced []tracedRun, untraced []runSample, spans *spanRecorder, stride int) map[string]metric {
	var (
		chunks, wall           float64
		comm, wait, comp, idle float64
		chunkRuns, imbalance   []float64
		accounted              []float64
		grantP50, grantP99     []float64
		tracedRate, plainRate  []float64
	)
	n := float64(in.def.n)
	for _, tr := range traced {
		if tr.err != nil {
			continue
		}
		chunks += float64(tr.rep.Chunks)
		wall += tr.wall
		for _, t := range tr.rep.PerWorker {
			comm += t.Comm
			wait += t.Wait
			comp += t.Comp
			idle += t.Idle
		}
		chunkRuns = append(chunkRuns, float64(tr.rep.Chunks))
		imbalance = append(imbalance, tr.rep.CompImbalance())
		accounted = append(accounted, tr.accounted())
		grantP50 = append(grantP50, tr.rep.GrantLatency.P50)
		grantP99 = append(grantP99, tr.rep.GrantLatency.P99)
		tracedRate = append(tracedRate, n/tr.wall)
	}
	plainRate = okSamples(untraced, func(s runSample) float64 { return n / s.wall })
	perChunk := func(x float64) float64 { return ratio(x, chunks) }
	p := float64(len(in.scales))
	h := snap.Hists[string(in.def.backend)]
	overhead := 0.0
	if r := median(plainRate); r > 0 {
		overhead = 1 - median(tracedRate)/r
	}
	busy := ratio(spans.kernelSeconds()*float64(stride), p*wall)
	return map[string]metric{
		"mandelbrot.kernel_busy_frac":   {busy, "ratio"},
		"sched.chunks_per_run":          {median(chunkRuns), "count"},
		"ledger.fetch_rtt_p50_us":       {h.LedgerFetch.Quantile(0.5) * 1e6, "us"},
		"ledger.fetch_rtt_p99_us":       {h.LedgerFetch.Quantile(0.99) * 1e6, "us"},
		"ledger.fetchadds_per_kchunk":   {perChunk(float64(snap.LedgerFetches)) * 1e3, "count"},
		"wire.frames_per_chunk":         {perChunk(float64(snap.WireSent.Frames)), "count"},
		"wire.bytes_per_chunk":          {perChunk(float64(snap.WireSent.Bytes)), "B"},
		"wire.codec_ns_per_chunk":       {perChunk(snap.WireSent.CodecSec+snap.WireReceived.CodecSec) * 1e9, "ns"},
		"exec.comm_us_per_chunk":        {perChunk(comm) * 1e6, "us"},
		"exec.wait_us_per_chunk":        {perChunk(wait) * 1e6, "us"},
		"exec.comp_us_per_chunk":        {perChunk(comp) * 1e6, "us"},
		"exec.idle_us_per_chunk":        {perChunk(idle) * 1e6, "us"},
		"exec.accounted_frac":           {median(accounted), "ratio"},
		"exec.comp_imbalance":           {median(imbalance), "ratio"},
		"exec.grant_wait_p50_us":        {median(grantP50) * 1e6, "us"},
		"exec.grant_wait_p99_us":        {median(grantP99) * 1e6, "us"},
		"exec.grant_to_complete_p99_us": {h.GrantToComplete.Quantile(0.99) * 1e6, "us"},
		"proc.sys_cpu_frac":             {median(okSamples(untraced, func(s runSample) float64 { return ratio(s.sys, s.user+s.sys) })), "ratio"},
		"proc.ctxsw_per_kchunk":         {median(okSamples(untraced, func(s runSample) float64 { return ratio(float64(s.ctxsw), float64(s.chunks)) * 1e3 })), "count"},
		"proc.gc_cycles_per_kiter":      {median(okSamples(untraced, func(s runSample) float64 { return float64(s.gc) / n * 1e3 })), "count"},
		"telemetry.overhead_frac":       {overhead, "ratio"},
		"telemetry.dropped_events":      {float64(snap.Dropped), "count"},
	}
}

// span is one timed interval recorded by the benchmark's own code.
type span struct {
	Name       string
	ID, Parent uint64
	Arg        int
	Start, End time.Time
}

// maxSpans caps the spans kept for the span file; spans past the cap
// still count towards kernelSeconds.
const maxSpans = 1 << 16

// spanRecorder keeps spans in memory and writes them out when the
// benchmark ends. It is safe for concurrent use: kernel spans arrive
// from every worker goroutine.
type spanRecorder struct {
	epoch  time.Time
	ids    atomic.Uint64
	kernel atomic.Int64 // nanoseconds inside recorded kernel spans

	mu      sync.Mutex
	spans   []span
	dropped int
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{epoch: time.Now()} }

func (r *spanRecorder) newID() uint64 { return r.ids.Add(1) }

func (r *spanRecorder) add(s span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) < maxSpans {
		r.spans = append(r.spans, s)
	} else {
		r.dropped++
	}
}

// timed runs f inside a span named name.
func (r *spanRecorder) timed(name string, f func()) {
	id := r.newID()
	start := time.Now()
	f()
	r.add(span{Name: name, ID: id, Start: start, End: time.Now()})
}

// wrapKernel records a span around every call of k on an index that is
// a multiple of stride, under the Run span parent.
func (r *spanRecorder) wrapKernel(k loopsched.Kernel, parent uint64, stride int) loopsched.Kernel {
	return func(i int) []byte {
		if i%stride != 0 {
			return k(i)
		}
		start := time.Now()
		out := k(i)
		end := time.Now()
		r.kernel.Add(int64(end.Sub(start)))
		r.add(span{Name: "kernel", ID: r.newID(), Parent: parent, Arg: i, Start: start, End: end})
		return out
	}
}

func (r *spanRecorder) kernelSeconds() float64 {
	return time.Duration(r.kernel.Load()).Seconds()
}

// writeFile saves the spans as Chrome trace-event JSON, viewable in
// Perfetto or chrome://tracing.
func (r *spanRecorder) writeFile(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(r.spans))
	for _, s := range r.spans {
		events = append(events, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: int(s.Parent),
			Ts:   float64(s.Start.Sub(r.epoch).Nanoseconds()) / 1e3,
			Dur:  float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "arg": s.Arg},
		})
	}
	b, err := json.Marshal(struct {
		TraceEvents  []event `json:"traceEvents"`
		DroppedSpans int     `json:"droppedSpans"`
	}{events, r.dropped})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
