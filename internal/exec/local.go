// Package exec runs parallel loops for real — not simulated — under
// any self-scheduling scheme: Local drives goroutine workers over one
// shared JobState (the shared-memory analogue of the paper's MPI
// program, with the master's grant loop run by whichever worker needs
// work), and Master/Worker in rpc.go speak the binary framing codec
// of internal/wire over TCP, standing in for the paper's mpich
// master–slave processes.
package exec

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"loopsched/internal/acp"
	"loopsched/internal/metrics"
	"loopsched/internal/sched"
	"loopsched/internal/telemetry"
	"loopsched/internal/trace"
	"loopsched/internal/workload"
)

// WorkerSpec emulates one heterogeneous slave inside a single process.
type WorkerSpec struct {
	// WorkScale repeats each iteration's body this many times,
	// emulating a machine 1/WorkScale as fast (1 = full speed).
	WorkScale int
	// Load is an externally adjustable run-queue surrogate: the
	// number of competing processes beyond the loop itself. Workers
	// report ACP = model.ACP(V, 1+Load) with V = 1/WorkScale relative
	// to the slowest worker. Mutate it with AddLoad.
	load atomic.Int64
}

// AddLoad adjusts the emulated external load (may go negative deltas;
// the floor is zero). The clamp is a CompareAndSwap loop so concurrent
// adjusters compose: a plain Add-then-Store(0) could overwrite another
// goroutine's delta that landed between the add and the store, or
// resurrect a stale negative floor.
func (w *WorkerSpec) AddLoad(delta int) {
	for {
		cur := w.load.Load()
		next := cur + int64(delta)
		if next < 0 {
			next = 0
		}
		if w.load.CompareAndSwap(cur, next) {
			return
		}
	}
}

// Load returns the current emulated external load.
func (w *WorkerSpec) Load() int { return int(w.load.Load()) }

func (w *WorkerSpec) scale() int {
	if w.WorkScale < 1 {
		return 1
	}
	return w.WorkScale
}

// Local executes a loop with one goroutine per worker over one
// JobState. Idle workers do what the paper's request/grant protocol
// asks of a master, themselves: pop their own deque, steal from the
// others, and only when the whole system looks empty report their ACP
// and pull a window of chunks from the scheme's policy under the
// job's refill lock, re-planning when a majority of ACPs changed (see
// docs/LOCAL.md).
type Local struct {
	Scheme  sched.Scheme
	Workers []*WorkerSpec
	// ACP is the availability model for distributed schemes.
	ACP acp.Model
	// DisableReplan turns off the majority re-plan (ablation).
	DisableReplan bool
	// Trace, when non-nil, records each computed chunk with
	// wall-clock timestamps relative to Run's start.
	Trace *trace.Trace
	// Telemetry, when non-nil, receives live protocol events
	// (requests, grants, completions, steals, refills, replans).
	// Independent of Trace.
	Telemetry *telemetry.Bus
	// Window caps how many chunks one refill pulls from the policy in
	// a single trip under the refill lock. <= 0 derives it from the
	// scheme (JobConfig.Window): DefaultStealWindow for
	// step-deterministic schemes, 1 for adaptive ones.
	Window int
	// Ledger requests the scheduling-step ledger for refills: one
	// fetch-and-add claims the whole window, no refill mutex. Empty
	// uses DefaultLedger (the LOOPSCHED_LEDGER environment variable);
	// schemes that are not step-deterministic silently keep the
	// policy path.
	Ledger LedgerMode
}

// Run executes body(i) exactly once for every iteration i of the
// workload, scheduling with the configured scheme, and reports
// measured times. body must be safe for concurrent invocation on
// distinct iterations.
//
// Deprecated: Run is the legacy context-free adapter; use the public
// loopsched.Run(ctx, RunSpec{Backend: BackendLocal, …}), which
// validates the spec, wires telemetry and honours cancellation (or
// RunContext when driving a Local directly).
func (l *Local) Run(w workload.Workload, body func(i int)) (metrics.Report, error) {
	return l.RunContext(context.Background(), w, body)
}

// localRun is one RunContext call: the JobState the workers share plus
// what a one-shot run adds on top — the context, the body, the ACP
// probes and per-worker timing for the report.
type localRun struct {
	*Local
	ctx      context.Context
	w        workload.Workload
	body     func(i int)
	js       *JobState
	maxScale int
	initACP  []int              // gathered first reports (distributed schemes)
	first    []sched.Assignment // first grants, served from initACP
	start    time.Time
	times    []metrics.Times
	wg       sync.WaitGroup
}

// RunContext is Run with cancellation: when ctx is cancelled no
// worker takes another chunk, the workers drain, and the call returns
// ctx's error. Iterations already started still complete (the body
// is never interrupted mid-iteration).
func (l *Local) RunContext(ctx context.Context, w workload.Workload, body func(i int)) (metrics.Report, error) {
	p := len(l.Workers)
	if p == 0 {
		return metrics.Report{}, fmt.Errorf("exec: no workers")
	}
	rep := metrics.Report{Scheme: l.Scheme.Name(), Workload: w.Name(), Workers: p}
	r := &localRun{Local: l, ctx: ctx, w: w, body: body, maxScale: 1}
	for _, ws := range l.Workers {
		r.maxScale = max(r.maxScale, ws.scale())
	}

	// Distributed schemes plan from every worker's first ACP report
	// (paper master step 1(a)). With no master goroutine the reports
	// are taken here, before any worker starts.
	dist := sched.Distributed(l.Scheme)
	if dist {
		r.initACP = make([]int, p)
		for i := range r.initACP {
			r.initACP[i] = r.acp(i)
		}
	}
	var err error
	r.js, err = NewJobState(JobConfig{
		Scheme:        l.Scheme,
		Workload:      w,
		Workers:       p,
		Window:        l.Window,
		InitACP:       r.initACP,
		DisableReplan: l.DisableReplan,
		Telemetry:     l.Telemetry,
		Ledger:        l.Ledger,
	})
	if err != nil {
		return rep, err
	}

	r.start = time.Now()
	if l.Trace != nil {
		l.Trace.Scheme = rep.Scheme
		l.Trace.Workload = rep.Workload
		l.Trace.Workers = p
	}
	r.times = make([]metrics.Times, p)
	for i := 0; i < p; i++ {
		l.Telemetry.Publish(telemetry.Event{
			Kind: telemetry.WorkerJoined, Worker: i,
			At: l.Telemetry.Now(),
		})
	}
	// The gathered first requests are served in worker order, each
	// grant handed to its requester directly: a chunk the plan sized
	// for one worker's ACP is never parked where another can steal it.
	if dist {
		r.first = make([]sched.Assignment, p)
		for i := range r.first {
			waitStart := time.Now()
			r.first[i], _, _ = r.js.Refill(i, r.initACP[i], 0, 0)
			r.times[i].Wait += time.Since(waitStart).Seconds()
		}
	}
	r.wg.Add(p)
	for i := 0; i < p; i++ {
		go r.worker(i)
	}
	r.wg.Wait()

	counts := r.js.Counts()
	rep.Tp = time.Since(r.start).Seconds()
	wait, comp := r.js.Latency()
	rep.GrantLatency = wait.Summarize()
	rep.CompLatency = comp.Summarize()
	rep.Chunks = counts.Chunks
	rep.Replans = counts.Replans
	rep.Steals = int(counts.Steals)
	rep.PerWorker = r.times
	rep.Iterations = int(counts.Completed)
	if ctx.Err() != nil {
		return rep, ctx.Err()
	}
	if rep.Iterations != w.Len() {
		return rep, fmt.Errorf("exec: executed %d of %d iterations", rep.Iterations, w.Len())
	}
	return rep, nil
}

// acp probes worker id's current ACP: its virtual power relative to
// the slowest worker, under its emulated external load.
func (r *localRun) acp(id int) int {
	ws := r.Workers[id]
	return r.ACP.ACP(float64(r.maxScale)/float64(ws.scale()), 1+ws.Load())
}

// worker is one worker's acquire–execute loop — its gathered first
// grant if it has one, then own pop, steal, refill — spinning (with
// Gosched) only in the terminal window where the policy is dry but
// granted chunks still sit in deques.
func (r *localRun) worker(id int) {
	defer r.wg.Done()
	js, times := r.js, &r.times[id]
	spec := r.Workers[id]
	var a sched.Assignment
	var acpNow int
	if r.first != nil {
		a, acpNow = r.first[id], r.initACP[id]
	} else {
		acpNow = r.acp(id)
	}
	held := a.Size > 0
	var fbWork, fbElapsed float64
	for {
		if r.ctx.Err() != nil {
			return
		}
		if !held {
			waitStart := time.Now()
			a, held = js.Pop(id)
			if !held {
				a, held = js.Steal(id)
			}
			if !held {
				acpNow = r.acp(id)
				a, _, held = js.Refill(id, acpNow, fbWork, fbElapsed)
				fbWork, fbElapsed = 0, 0
			}
			if !held {
				if js.Finished() {
					return
				}
				// Granted work is still in flight in other deques (or
				// the policy will yield more once someone reports):
				// yield and rescan rather than block.
				runtime.Gosched()
				continue
			}
			times.Wait += time.Since(waitStart).Seconds()
		}
		held = false
		compStart := time.Now()
		for it := a.Start; it < a.End(); it++ {
			for rep := 0; rep < spec.scale(); rep++ {
				r.body(it)
			}
		}
		fbWork = workload.RangeCost(r.w, a.Start, a.End())
		// One reading serves the feedback loop, the Comp metric and
		// the trace span: separate time.Since calls drift apart by the
		// work between them, so Feedback would see an elapsed time
		// that never equals the reported Comp.
		fbElapsed = time.Since(compStart).Seconds()
		times.Comp += fbElapsed
		js.Complete(id, a, acpNow, fbElapsed)
		if r.Trace != nil {
			begin := compStart.Sub(r.start).Seconds()
			r.Trace.Add(trace.Event{
				Worker: id,
				Start:  a.Start,
				Size:   a.Size,
				Begin:  begin,
				End:    begin + fbElapsed,
				ACP:    acpNow,
			})
		}
	}
}
