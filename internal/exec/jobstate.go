package exec

import (
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"loopsched/internal/acp"
	"loopsched/internal/ledger"
	"loopsched/internal/sched"
	"loopsched/internal/steal"
	"loopsched/internal/telemetry"
	"loopsched/internal/telemetry/hist"
	"loopsched/internal/workload"
)

// JobConfig configures one fleet-schedulable job for NewJobState.
type JobConfig struct {
	// Scheme is the self-scheduling scheme the job's chunks come from.
	Scheme sched.Scheme
	// Workload is the job's loop.
	Workload workload.Workload
	// Workers is the fleet size p: the job gets one deque per worker.
	Workers int
	// Window is the refill batch size. <= 0 derives it from the
	// scheme: DefaultStealWindow when sched.StepDeterministic, else 1,
	// so a chunk an adaptive scheme sized for one worker's request is
	// never parked where another worker can steal it.
	Window int
	// InitACP seeds the per-worker ACP figures distributed schemes
	// plan with (the paper's step 1(a) gather). nil means every
	// worker reports ACP 1 until its first refill.
	InitACP []int
	// DisableReplan turns off the majority re-plan.
	DisableReplan bool
	// Telemetry receives the job's chunk events; nil is inert.
	Telemetry *telemetry.Bus
	// Job and Tenant tag every event the job publishes, so a shared
	// bus can attribute chunks per job and per tenant. Zero means
	// untagged (single-run execution).
	Job, Tenant int
	// Ledger requests the scheduling-step ledger for refills: when the
	// scheme is step-deterministic, a refill becomes one fetch-and-add
	// on an atomic step counter plus table lookups — no refill mutex at
	// all. Empty uses DefaultLedger (the LOOPSCHED_LEDGER environment
	// variable); ineligible schemes silently keep the policy path.
	Ledger LedgerMode
}

// JobCounts is a point-in-time snapshot of a job's chunk accounting.
type JobCounts struct {
	Chunks    int   // chunks granted by the policy
	Replans   int   // majority re-plans taken
	Granted   int64 // iterations granted
	Completed int64 // iterations executed
	Steals    int64 // chunks moved between workers
}

// DefaultStealWindow is the refill batch size of step-deterministic
// schemes when no window is set: one trip to the policy under the
// refill lock yields up to this many chunks, one executed immediately
// and the rest parked in the worker's deque for later pops or steals.
// It mirrors the wire path's credit window: larger windows amortise
// the lock but delay feedback and re-planning, which only see ACP at
// refill time.
const DefaultStealWindow = 8

// lane holds the tallies only one worker writes: its deque counters
// and its two latency histograms. Lanes hold no pointers, so a lanes
// array carries no allocation header and starts on a cache line; the
// pad ends each lane on one, so neighbouring workers never share a
// line. (Deques stay separate objects: their ring pointer would give a
// combined array a header that shifts every line by eight bytes.)
type lane struct {
	counters steal.AtomicCounters
	wait     hist.Hist // request-to-grant latency
	comp     hist.Hist // per-chunk compute latency
	_        [40]byte
}

// This fails to compile unless a lane fills whole cache lines; adjust
// the pad above if a field changes size.
var _ [unsafe.Sizeof(lane{}) % steal.CacheLine]struct{} = [0]struct{}{}

// JobState is the fleet-shareable core of the local engine: one job's
// per-worker deques plus everything a master would keep private — the
// scheme policy, live/plan ACP, grant accounting — guarded by one
// amortised refill mutex. A single JobState backs a whole Local run; a
// scheduler keeps many JobStates alive at once on one worker fleet,
// each worker holding one deque per job.
//
// Termination is masterless: drained flips when the policy runs dry
// (it can never un-dry — a re-plan covers only the remaining
// iterations, which is zero by then), after which granted is frozen
// once no ledger claim is still in flight; the job is finished once
// drained && claiming == 0 && completed == granted, i.e. every granted
// iteration has been executed by somebody.
type JobState struct {
	scheme        sched.Scheme
	w             workload.Workload
	p             int
	dist          bool
	disableReplan bool
	bus           *telemetry.Bus
	job, tenant   int

	deques []*steal.Deque // one per worker
	lanes  []lane         // one per worker
	window int            // chunks per refill

	// Scheduling-step ledger (JobConfig.Ledger): when armed, Refill
	// bypasses s.mu entirely — one fetch-and-add claims a window of
	// steps and the table maps each to its chunk. nil keeps the policy
	// path. ledgerChunks is the ledger's share of the chunk tally,
	// folded into Counts alongside the mu-guarded chunks. claiming
	// counts refills between their fetch-and-add and their last
	// granted update: a later claimer can see the table dry and flip
	// drained while an earlier one is still booking valid steps, so
	// granted is only final once claiming is back to zero.
	ledgerTab    *ledger.Table
	ledgerCtr    *ledger.Local // allocated only when the ledger arms
	ledgerChunks atomic.Int64
	claiming     atomic.Int64

	granted   atomic.Int64
	completed atomic.Int64
	drained   atomic.Bool
	aborted   atomic.Bool

	mu      sync.Mutex // guards everything below
	policy  sched.Policy
	liveACP []int // distributed schemes only
	planACP []int
	base    int
	chunks  int
	replans int
}

// NewJobState plans the job's first policy and allocates its deques.
func NewJobState(cfg JobConfig) (*JobState, error) {
	p := cfg.Workers
	window := cfg.Window
	if window <= 0 {
		window = 1
		if sched.StepDeterministic(cfg.Scheme) {
			window = DefaultStealWindow
		}
	}
	s := &JobState{
		scheme:        cfg.Scheme,
		w:             cfg.Workload,
		dist:          sched.Distributed(cfg.Scheme),
		p:             p,
		disableReplan: cfg.DisableReplan,
		bus:           cfg.Telemetry,
		job:           cfg.Job,
		tenant:        cfg.Tenant,
		deques:        make([]*steal.Deque, p),
		lanes:         make([]lane, p),
		window:        window,
	}
	for i := range s.deques {
		s.deques[i] = steal.NewDeque(window)
	}
	if s.dist {
		acps := make([]int, 2*p)
		s.liveACP, s.planACP = acps[:p:p], acps[p:]
		for i := 0; i < p; i++ {
			a := 1
			if i < len(cfg.InitACP) {
				a = cfg.InitACP[i]
			}
			s.liveACP[i] = a
		}
	}
	var err error
	s.policy, err = s.plan()
	if err != nil {
		return nil, err
	}
	mode, ok := cfg.Ledger.Normalize()
	if !ok {
		return nil, fmt.Errorf("exec: unknown ledger mode %q", cfg.Ledger)
	}
	if mode == LedgerOn {
		// Advisory: a build failure (ineligible scheme, over-long loop)
		// keeps the policy path, so "on" is always safe.
		if tab, err := ledger.Build(cfg.Scheme, sched.Config{Iterations: cfg.Workload.Len(), Workers: p}); err == nil {
			s.ledgerTab = tab
			s.ledgerCtr = new(ledger.Local)
		}
	}
	return s, nil
}

// Workload returns the job's loop (for feedback cost lookups).
func (s *JobState) Workload() workload.Workload { return s.w }

// plan builds a policy over the remaining iterations, offset past what
// has already been granted. Caller holds s.mu (or is pre-spawn).
func (s *JobState) plan() (sched.Policy, error) {
	cfg := sched.Config{Iterations: s.w.Len() - s.base, Workers: s.p}
	if s.dist {
		powers := make([]float64, s.p)
		for i, a := range s.liveACP {
			if a < 1 {
				a = 1
			}
			powers[i] = float64(a)
		}
		cfg.Powers = powers
	}
	pol, err := s.scheme.NewPolicy(cfg)
	if err != nil {
		return nil, err
	}
	copy(s.planACP, s.liveACP)
	return sched.Offset(pol, s.base), nil
}

// event returns an Event pre-tagged with the job's identity.
//
//lint:loopsched-hotpath
func (s *JobState) event(kind telemetry.Kind, worker int) telemetry.Event {
	return telemetry.Event{
		Kind: kind, Worker: worker,
		Job: s.job, Tenant: s.tenant,
	}
}

// Pop takes the newest chunk from the worker's own deque for this job.
//
//lint:loopsched-hotpath
func (s *JobState) Pop(worker int) (sched.Assignment, bool) {
	a, ok := s.deques[worker].Pop()
	if ok {
		s.lanes[worker].counters.Pops.Add(1)
	}
	return a, ok
}

// Steal scans the other workers' deques starting just past the thief,
// taking the first (oldest) chunk it finds.
//
//lint:loopsched-hotpath
func (s *JobState) Steal(thief int) (sched.Assignment, bool) {
	c := &s.lanes[thief].counters
	for off := 1; off < s.p; off++ {
		victim := (thief + off) % s.p
		if a, ok := s.deques[victim].Steal(); ok {
			c.Steals.Add(1)
			e := s.event(telemetry.ChunkStolen, thief)
			e.Shard = victim
			e.Start, e.Size = a.Start, a.Size
			e.At = s.bus.Now()
			s.bus.Publish(e)
			return a, true
		}
	}
	c.FailedSteals.Add(1)
	return sched.Assignment{}, false
}

// Refill is the local engine's stand-in for one master round-trip: it
// reports the worker's current ACP, applies any pending feedback,
// re-plans on majority ACP change, and pulls up to a window of chunks
// from the policy. The first chunk is returned for immediate
// execution; the rest are staged straight into the worker's (empty —
// refill only runs after its own pop failed, and thieves never add)
// deque for this job and published to thieves once the refill lock is
// released, so no thief steals a chunk while the lock is still held.
// The int result is the number of iterations granted by this refill,
// which a fair-share arbiter charges against the job's credit budget.
func (s *JobState) Refill(worker, acpNow int, fbWork, fbElapsed float64) (sched.Assignment, int, bool) {
	if s.aborted.Load() {
		return sched.Assignment{}, 0, false
	}
	if s.ledgerTab != nil {
		return s.refillLedger(worker, acpNow)
	}
	reqAt := s.request(worker, acpNow)
	var first sched.Assignment
	n, iters := 0, 0

	s.mu.Lock()
	if s.aborted.Load() {
		// Re-checked under the refill mutex: Abort followed by a
		// mutex-acquiring Counts snapshot therefore observes every
		// grant that will ever happen, so a cancelled job's report
		// reconciles exactly with its telemetry.
		s.mu.Unlock()
		return sched.Assignment{}, 0, false
	}
	if s.dist {
		s.liveACP[worker] = acpNow
	}
	if fb, ok := s.policy.(sched.FeedbackPolicy); ok && fbElapsed > 0 {
		fb.Feedback(worker, fbWork, fbElapsed)
	}
	if s.dist && !s.disableReplan && acp.MajorityChanged(s.planACP, s.liveACP) {
		if p2, err2 := s.plan(); err2 == nil {
			s.policy = p2
			s.replans++
			e := s.event(telemetry.StageAdvanced, worker)
			e.At = s.bus.Now()
			s.bus.Publish(e)
		}
	}
	for n < s.window {
		a, ok := s.policy.Next(sched.Request{Worker: worker, ACP: float64(acpNow)})
		if !ok {
			s.drained.Store(true)
			break
		}
		s.base = a.End()
		s.chunks++
		s.grant(worker, acpNow, reqAt, a)
		iters += a.Size
		if n == 0 {
			first = a
		} else {
			s.deques[worker].Stage(n-1, a) // fits: deque empty, cap >= window
		}
		n++
	}
	s.mu.Unlock()
	return s.refilled(worker, acpNow, first, n, iters)
}

// refillLedger is Refill on the scheduling-step ledger: one
// fetch-and-add claims a whole window of steps, the table maps each
// step to its chunk, and nothing touches s.mu — p workers refilling
// concurrently contend on a single atomic instead of serialising
// through the policy lock. Feedback and re-planning don't apply: the
// ledger only arms for step-deterministic schemes, whose chunks ignore
// everything the master path would feed back.
//
// Cancellation here is best-effort where the mutex path is exact: a
// refill racing Abort may grant one final window. Those grants still
// publish their events, so telemetry reconciliation holds either way.
func (s *JobState) refillLedger(worker, acpNow int) (sched.Assignment, int, bool) {
	reqAt := s.request(worker, acpNow)
	var first sched.Assignment
	n, iters := 0, 0

	s.claiming.Add(1)
	step, _ := s.ledgerCtr.FetchAdd(s.window)
	claimAt := s.bus.Now()
	fetch := s.event(telemetry.LedgerFetch, worker)
	fetch.Start = s.window
	fetch.At, fetch.Seconds = claimAt, claimAt-reqAt
	s.bus.Publish(fetch)
	for ; n < s.window; n++ {
		a, ok := s.ledgerTab.Chunk(step + uint64(n))
		if !ok {
			// Steps past the table's end: the loop is fully claimed.
			// Over-claimed steps are harmlessly wasted — the counter
			// only ever moves forward.
			s.drained.Store(true)
			break
		}
		s.ledgerChunks.Add(1)
		s.grant(worker, acpNow, reqAt, a)
		iters += a.Size
		if n == 0 {
			first = a
		} else {
			s.deques[worker].Stage(n-1, a) // fits: deque empty, cap >= window
		}
	}
	s.claiming.Add(-1)
	return s.refilled(worker, acpNow, first, n, iters)
}

// request publishes a refill's ChunkRequested event and returns its
// instant, the start of every grant's wait.
func (s *JobState) request(worker, acpNow int) float64 {
	at := s.bus.Now()
	e := s.event(telemetry.ChunkRequested, worker)
	e.ACP = acpNow
	e.At = at
	s.bus.Publish(e)
	return at
}

// grant books one granted chunk: the granted tally, the worker's wait
// histogram and the ChunkGranted event.
func (s *JobState) grant(worker, acpNow int, reqAt float64, a sched.Assignment) {
	s.granted.Add(int64(a.Size))
	now := s.bus.Now()
	s.lanes[worker].wait.Record(now - reqAt)
	e := s.event(telemetry.ChunkGranted, worker)
	e.Start, e.Size, e.ACP = a.Start, a.Size, acpNow
	e.Span = telemetry.SpanID(s.job, a.Start)
	e.At, e.Seconds = now, now-reqAt
	s.bus.Publish(e)
}

// refilled closes a refill that granted n chunks, first among them:
// it publishes the n-1 staged chunks to thieves, tallies the refill
// and publishes DequeRefilled.
func (s *JobState) refilled(worker, acpNow int, first sched.Assignment, n, iters int) (sched.Assignment, int, bool) {
	if n == 0 {
		return sched.Assignment{}, 0, false
	}
	s.deques[worker].Publish(n - 1)
	c := &s.lanes[worker].counters
	c.Refills.Add(1)
	c.RefillChunks.Add(int64(n))
	e := s.event(telemetry.DequeRefilled, worker)
	e.Start, e.Size, e.ACP = first.Start, n, acpNow
	e.At = s.bus.Now()
	s.bus.Publish(e)
	return first, iters, true
}

// LedgerActive reports whether refills draw from the scheduling-step
// ledger instead of the mutex-guarded policy.
func (s *JobState) LedgerActive() bool { return s.ledgerTab != nil }

// Feedback applies one completed chunk's measured cost to the policy,
// for schedulers whose workers interleave many jobs and cannot carry
// feedback to the next refill of the same job.
func (s *JobState) Feedback(worker int, work, elapsed float64) {
	if elapsed <= 0 {
		return
	}
	s.mu.Lock()
	if fb, ok := s.policy.(sched.FeedbackPolicy); ok {
		fb.Feedback(worker, work, elapsed)
	}
	s.mu.Unlock()
}

// Complete records the execution of one chunk, publishes its
// completion event, and reports whether this completion finished the
// job (drained with every granted iteration executed). A false return
// does not mean the job is unfinished — the final grant's drained flag
// may land after the last completion — so schedulers must also check
// Finished after a refill comes back empty.
//
//lint:loopsched-hotpath
func (s *JobState) Complete(worker int, a sched.Assignment, acpNow int, seconds float64) bool {
	done := s.completed.Add(int64(a.Size))
	s.lanes[worker].comp.Record(seconds)
	e := s.event(telemetry.ChunkCompleted, worker)
	e.Start, e.Size, e.ACP = a.Start, a.Size, acpNow
	e.Span = telemetry.SpanID(s.job, a.Start)
	e.At, e.Seconds = s.bus.Now(), seconds
	s.bus.Publish(e)
	return s.drained.Load() && s.claiming.Load() == 0 && done >= s.granted.Load()
}

// Latency snapshots the job's request-to-grant and per-chunk compute
// latency histograms.
func (s *JobState) Latency() (wait, comp hist.Snapshot) {
	for i := range s.lanes {
		wait.Merge(s.lanes[i].wait.Snapshot())
		comp.Merge(s.lanes[i].comp.Snapshot())
	}
	return wait, comp
}

// Abort stops the job: no further refills will grant work. Chunks
// already granted but still queued in deques become stale — the owner
// discards them — so only the chunk each worker is currently executing
// runs to completion (preemption never splits a granted chunk).
func (s *JobState) Abort() {
	s.aborted.Store(true)
	s.drained.Store(true)
}

// Drained reports whether the policy has run dry (or the job was
// aborted): no refill will ever grant more work.
func (s *JobState) Drained() bool { return s.drained.Load() }

// Finished reports whether the job is complete: the policy is dry and
// every granted iteration has been executed.
func (s *JobState) Finished() bool {
	return s.drained.Load() && s.claiming.Load() == 0 && s.completed.Load() >= s.granted.Load()
}

// Granted returns the iterations granted so far.
func (s *JobState) Granted() int64 { return s.granted.Load() }

// Completed returns the iterations executed so far.
func (s *JobState) Completed() int64 { return s.completed.Load() }

// Counts snapshots the job's chunk accounting.
func (s *JobState) Counts() JobCounts {
	s.mu.Lock()
	chunks, replans := s.chunks, s.replans
	s.mu.Unlock()
	c := JobCounts{
		Chunks:    chunks + int(s.ledgerChunks.Load()),
		Replans:   replans,
		Granted:   s.granted.Load(),
		Completed: s.completed.Load(),
	}
	for i := range s.lanes {
		c.Steals += s.lanes[i].counters.Steals.Load()
	}
	return c
}

// WorkerCounters snapshots worker i's deque counters for this job.
// Safe to call while the job is running: the live tally is atomic, so
// a scheduler polling a job mid-flight reads torn-free counts.
func (s *JobState) WorkerCounters(i int) steal.Counters { return s.lanes[i].counters.Snapshot() }
