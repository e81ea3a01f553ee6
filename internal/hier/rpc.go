package hier

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"loopsched/internal/exec"
	"loopsched/internal/ledger"
	"loopsched/internal/sched"
	"loopsched/internal/telemetry"
	"loopsched/internal/wire"
)

// rootLink is the submaster's upward link: the binary framing codec,
// one super-chunk per round trip (the shard-level pipeline, not the
// credit window, hides the root latency here). Calls are serialised by
// the `fetching` flag — at most one fetch is in flight — so the link
// needs no internal locking.
type rootLink struct {
	c   *wire.Conn
	req wire.Request
	rep wire.Reply
}

// grant is one answer of the one-grant dialogue: an assignment, or a
// stop verdict, or neither (an empty reply to a prefetch).
type grant struct {
	assign sched.Assignment
	stop   bool
}

// call ships args to the root and returns its (at most one) grant.
func (r *rootLink) call(args exec.ChunkArgs) (grant, error) {
	r.req = wire.Request{
		Worker:      args.Worker,
		ACP:         args.ACP,
		CompSeconds: args.CompSeconds,
		IdleSeconds: args.IdleSeconds,
		Prefetch:    args.Prefetch,
		Credits:     1,
		Results:     r.req.Results[:0],
	}
	for _, res := range args.Results {
		r.req.Results = append(r.req.Results, wire.Record{Index: res.Index, Data: res.Data})
	}
	if err := r.c.Call(&r.req, &r.rep); err != nil {
		return grant{}, err
	}
	g := grant{stop: r.rep.Stop}
	if len(r.rep.Grants) > 0 {
		g.assign = r.rep.Grants[0]
	}
	return g, nil
}

// Submaster is the middle tier of the RPC hierarchy. To its workers it
// is indistinguishable from a flat master: it speaks the same batched
// request/grant dialogue, so stock exec.Worker slaves connect
// unchanged. To the root it is a pipelined client: it fetches
// super-chunks with the same double-buffered Prefetch handshake the
// flat runtime uses between worker and master, piggy-backing its
// shard's accumulated results on every fetch, so the root round-trip
// hides behind local computation.
//
// Deadlock discipline: a blocking (parkable) fetch is issued only when
// the shard holds no undelivered results — every iteration the
// submaster ever received has either been forwarded or rides on that
// very fetch. The root can therefore retire the shard's ledger
// entirely on receipt, and parking the fetch until the global run
// finishes is safe.
type Submaster struct {
	shard   int
	workers int
	scheme  sched.Scheme
	dist    bool
	root    *rootLink
	bg      sync.WaitGroup // in-flight prefetch goroutines
	serveWG sync.WaitGroup // accept loop + per-connection servers

	bus      *telemetry.Bus // nil unless SetTelemetry was called
	globalID []int          // shard-local worker index → run-global id

	mu       sync.Mutex
	conns    []net.Conn // accepted by Serve, closed by Close
	cond     *sync.Cond
	policy   sched.Policy
	buffered []sched.Assignment // fetched super-chunks not yet planned
	fetching bool
	rootDone bool
	rootErr  error

	// Stage-local scheduling ledger (SetLedger): when the scheme is
	// step-deterministic, every super-chunk grant from the root seeds a
	// fresh prefix table and resets the step counter, and local grants
	// become a fetch-add plus a table lookup instead of a policy
	// mutation. ledgerTab is nil on the policy path or once the stage
	// drains; ledgerBase is the super-chunk's offset in the loop.
	ledgerOn   bool
	ledgerTab  *ledger.Table
	ledgerCtr  ledger.Local
	ledgerBase int

	liveACP  []int
	seen     []bool
	gathered int

	pending     []exec.ChunkResult // results awaiting the next fetch
	outstanding int                // granted iterations not yet deposited back

	iters      int
	chunks     int
	fetches    int
	comp       float64
	stopped    int
	finishedAt time.Time
	done       chan struct{}
}

// NewSubmaster connects shard `shard` to the root master at rootAddr,
// serving `workers` local slaves under the scheme.
func NewSubmaster(shard int, scheme sched.Scheme, workers int, rootAddr string) (*Submaster, error) {
	if workers <= 0 {
		return nil, fmt.Errorf("hier: submaster needs at least one worker")
	}
	conn, err := net.Dial("tcp", rootAddr)
	if err != nil {
		return nil, err
	}
	wc, err := wire.NewClient(conn)
	if err != nil {
		conn.Close()
		return nil, err
	}
	s := &Submaster{
		shard:   shard,
		workers: workers,
		scheme:  scheme,
		dist:    sched.Distributed(scheme),
		root:    &rootLink{c: wc},
		liveACP: make([]int, workers),
		seen:    make([]bool, workers),
		done:    make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	return s, nil
}

// SetTelemetry attaches an event bus: the submaster publishes
// worker-level protocol events (joins, requests, grants, prefetch
// misses, stage advances) tagged with its shard index. globalIDs maps
// the shard-local worker index to the run-global worker id used in
// events; nil keeps local ids. Call before Serve.
func (s *Submaster) SetTelemetry(bus *telemetry.Bus, globalIDs []int) {
	s.mu.Lock()
	s.bus = bus
	s.globalID = globalIDs
	s.mu.Unlock()
}

// SetLedger requests the stage-local scheduling ledger for this
// shard's grants. The mode is advisory exactly as on the flat master:
// a scheme that is not step-deterministic (or is distributed) silently
// keeps the policy path, so "on" is always safe. Call before Serve.
func (s *Submaster) SetLedger(mode exec.LedgerMode) error {
	mode, ok := mode.Normalize()
	if !ok {
		return fmt.Errorf("hier: unknown ledger mode %q", mode)
	}
	s.mu.Lock()
	s.ledgerOn = mode == exec.LedgerOn && !s.dist && sched.StepDeterministic(s.scheme)
	s.mu.Unlock()
	return nil
}

// fetchAddFunc reports the worker-facing one-sided claim hook. The
// shard's ledger is stage-local — its table changes with every
// super-chunk the root grants — so workers cannot hold a static
// replica and wire-level claims are not served; the ledger accelerates
// the shard's own grant path instead.
func (s *Submaster) fetchAddFunc() exec.FetchAddFunc { return nil }

// takeLocked draws the next local chunk for req, from the stage ledger
// when one is armed (fetch-add + table lookup + offset) and from the
// policy otherwise. A drained ledger stage disarms itself so the loop
// proceeds to plan the next super-chunk. Callers hold mu.
func (s *Submaster) takeLocked(req sched.Request) (sched.Assignment, bool) {
	if s.ledgerTab != nil {
		step, _ := s.ledgerCtr.FetchAdd(1)
		a, ok := s.ledgerTab.Chunk(step)
		if !ok {
			s.ledgerTab = nil
			return sched.Assignment{}, false
		}
		a.Start += s.ledgerBase
		if s.bus != nil {
			s.bus.Publish(telemetry.Event{
				Kind: telemetry.LedgerFetch, Worker: s.telemetryID(req.Worker),
				Shard: s.shard, Start: 1, At: s.bus.Now(),
			})
		}
		return a, true
	}
	if s.policy == nil {
		return sched.Assignment{}, false
	}
	return s.policy.Next(req)
}

// telemetryID maps a shard-local worker index to the id published in
// telemetry events. Callers hold mu.
func (s *Submaster) telemetryID(local int) int {
	if local >= 0 && local < len(s.globalID) {
		return s.globalID[local]
	}
	return local
}

// Serve accepts worker connections until the listener closes, running
// the same framed chunk service as the flat master on each.
func (s *Submaster) Serve(l net.Listener) error {
	s.serveWG.Add(1)
	go func() {
		defer s.serveWG.Done()
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.conns = append(s.conns, conn)
			bus := s.bus
			s.mu.Unlock()
			s.serveWG.Add(1)
			go func() {
				defer s.serveWG.Done()
				exec.ServeConn(conn, bus, s.shard, s.nextBatch, s.fetchAddFunc())
			}()
		}
	}()
	return nil
}

// nextBatch is the submaster's batched wire service: the first grant
// carries next's full semantics (parking a drained worker, stop on
// completion), and the remaining credits are filled best-effort from
// the already planned local stage — top-ups use the prefetch form,
// which never blocks and keeps the root pipeline primed, so a batched
// worker cannot deadlock the shard.
func (s *Submaster) nextBatch(args exec.ChunkArgs, credits int, rep *wire.Reply) error {
	first, err := s.next(args)
	if err != nil {
		return err
	}
	if first.stop {
		rep.Stop = true
		return nil
	}
	if first.assign.Size == 0 {
		return nil // empty prefetch answer: ask again plainly
	}
	rep.Grants = append(rep.Grants, first.assign)
	topup := exec.ChunkArgs{Worker: args.Worker, ACP: args.ACP, Prefetch: true}
	for len(rep.Grants) < credits {
		g, err := s.next(topup)
		if err != nil {
			return err
		}
		if g.assign.Size == 0 {
			break
		}
		rep.Grants = append(rep.Grants, g.assign)
	}
	// Span-tag the batch when telemetry is attached, mirroring the ids
	// next stamped on the grant events, so the worker's completion
	// closes the same flow. A bus-less shard sends v1-identical frames.
	s.mu.Lock()
	tagged := s.bus != nil
	s.mu.Unlock()
	if tagged {
		for _, g := range rep.Grants {
			rep.Spans = append(rep.Spans, telemetry.SpanID(0, g.Start))
		}
	}
	return nil
}

// Close joins the in-flight prefetch (the root answers prefetches
// immediately, so this never parks), releases the root connection —
// which errors out any parked blocking fetch — and tears down the
// worker connections accepted by Serve, joining their server
// goroutines. Close the listener first so the accept loop can exit.
func (s *Submaster) Close() error {
	s.bg.Wait()
	err := s.root.c.Close()
	s.mu.Lock()
	if !s.rootDone && s.rootErr == nil {
		// Wake any request handler still parked on the pipeline so its
		// connection loop can unwind before we join serveWG.
		s.rootErr = fmt.Errorf("hier: submaster closed")
	}
	s.cond.Broadcast()
	conns := s.conns
	s.conns = nil
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	s.serveWG.Wait()
	return err
}

// Wait blocks until every local worker has been stopped, or ctx ends.
func (s *Submaster) Wait(ctx context.Context) error {
	select {
	case <-s.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Counts returns the shard's tallies for the run report; finishedAt is
// zero until the last worker stops. fetches counts root round-trips
// the submaster initiated (its own view; the root counts grants).
func (s *Submaster) Counts() (iters, chunks, fetches int, comp float64, finishedAt time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.iters, s.chunks, s.fetches, s.comp, s.finishedAt
}

// aggregateACP sums the freshest member reports; callers hold mu.
func (s *Submaster) aggregateACP() int {
	total := 0
	for _, a := range s.liveACP {
		if a < 1 {
			a = 1
		}
		total += a
	}
	return total
}

// next is the submaster's one-grant core behind nextBatch: deposit
// the worker's results, then grant one local chunk, park a drained
// worker until the root answers, or send it home.
func (s *Submaster) next(args exec.ChunkArgs) (grant, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if args.Worker < 0 || args.Worker >= s.workers {
		s.bus.Publish(telemetry.Event{
			Kind: telemetry.WorkerRejected, Worker: args.Worker,
			Shard: s.shard, At: s.bus.Now(),
		})
		return grant{}, fmt.Errorf("hier: unknown worker %d", args.Worker)
	}
	reqAt := s.bus.Now()

	if len(args.Results) > 0 {
		s.pending = append(s.pending, args.Results...)
		s.outstanding -= len(args.Results)
		s.cond.Broadcast() // a drained peer may now issue the fetch
	}
	if args.CompSeconds > 0 {
		s.comp += args.CompSeconds
	}
	s.liveACP[args.Worker] = args.ACP
	if !s.seen[args.Worker] {
		s.seen[args.Worker] = true
		s.gathered++
		s.bus.Publish(telemetry.Event{
			Kind: telemetry.WorkerJoined, Worker: s.telemetryID(args.Worker),
			Shard: s.shard, ACP: args.ACP, At: reqAt,
		})
		if s.gathered == s.workers {
			s.cond.Broadcast() // gather complete: the first fetch may go
		}
	}
	s.bus.Publish(telemetry.Event{
		Kind: telemetry.ChunkRequested, Worker: s.telemetryID(args.Worker),
		Shard: s.shard, ACP: args.ACP, At: reqAt,
	})

	for {
		if s.rootErr != nil {
			return grant{}, s.rootErr
		}
		if a, ok := s.takeLocked(sched.Request{Worker: args.Worker, ACP: float64(args.ACP)}); ok {
			s.chunks++
			s.iters += a.Size
			s.outstanding += a.Size
			kind := telemetry.ChunkGranted
			if args.Prefetch {
				kind = telemetry.ChunkPrefetched
			}
			if s.bus != nil {
				now := s.bus.Now()
				s.bus.Publish(telemetry.Event{
					Kind: kind, Worker: s.telemetryID(args.Worker),
					Shard: s.shard, Start: a.Start, Size: a.Size,
					ACP: args.ACP, Span: telemetry.SpanID(0, a.Start),
					At: now, Seconds: now - reqAt,
				})
			}
			return grant{assign: a}, nil
		}
		if len(s.buffered) > 0 {
			if err := s.planLocked(); err != nil {
				return grant{}, err
			}
			continue
		}
		if s.rootDone {
			if args.Prefetch {
				s.bus.Publish(telemetry.Event{
					Kind: telemetry.PrefetchMissed, Worker: s.telemetryID(args.Worker),
					Shard: s.shard, At: reqAt,
				})
				return grant{}, nil // empty: finish your chunk, ask again plainly
			}
			s.stopped++
			if s.stopped >= s.workers {
				s.finishedAt = time.Now()
				close(s.done)
			}
			return grant{stop: true}, nil
		}
		if args.Prefetch {
			// Can't give the pipelined worker anything yet; keep a root
			// prefetch moving and answer empty.
			s.launchPrefetchLocked()
			s.bus.Publish(telemetry.Event{
				Kind: telemetry.PrefetchMissed, Worker: s.telemetryID(args.Worker),
				Shard: s.shard, At: reqAt,
			})
			return grant{}, nil
		}
		// Plain request with nothing local. Fetch from the root once the
		// shard is quiescent (gather done, no undelivered results, no
		// fetch already in flight); otherwise wait for state to change.
		if !s.fetching && s.gathered == s.workers && s.outstanding == 0 {
			if err := s.blockingFetchLocked(); err != nil {
				return grant{}, err
			}
			continue
		}
		s.cond.Wait()
	}
}

// planLocked pops the next buffered super-chunk into a fresh local
// policy — powers re-derived from the members' latest ACP reports, the
// hierarchy's per-super-chunk adaptivity — and keeps the root pipeline
// primed. Callers hold mu.
func (s *Submaster) planLocked() error {
	g := s.buffered[0]
	s.buffered = s.buffered[1:]
	cfg := sched.Config{Iterations: g.Size, Workers: s.workers}
	if s.dist || s.isWeighted() {
		powers := make([]float64, s.workers)
		for i, a := range s.liveACP {
			if a < 1 {
				a = 1
			}
			powers[i] = float64(a)
		}
		cfg.Powers = powers
	}
	s.policy, s.ledgerTab = nil, nil
	if s.ledgerOn {
		// Seed a fresh ledger from the root's grant. Exactly one grant
		// source per stage: the policy stays nil while the table is
		// armed, so ledger claims and policy grants cannot overlap.
		if tab, err := ledger.Build(s.scheme, cfg); err == nil {
			s.ledgerTab = tab
			s.ledgerBase = g.Start
			s.ledgerCtr.Store(0)
		}
		// Any build error (over-long stage, scheme surprise) simply
		// falls back to the policy path below.
	}
	if s.ledgerTab == nil {
		pol, err := s.scheme.NewPolicy(cfg)
		if err != nil {
			s.rootErr = err
			s.cond.Broadcast()
			return err
		}
		s.policy = sched.Offset(pol, g.Start)
	}
	// Each super-chunk is a fresh scheduling stage for the shard.
	s.bus.Publish(telemetry.Event{
		Kind: telemetry.StageAdvanced, Shard: s.shard,
		Start: g.Start, Size: g.Size, At: s.bus.Now(),
	})
	if len(s.buffered) == 0 {
		s.launchPrefetchLocked()
	}
	return nil
}

// isWeighted reports whether the scheme wants static weights; the
// submaster has no machine table for its remote workers, so their
// reported ACPs stand in (proportional to virtual power on an
// unloaded slave).
func (s *Submaster) isWeighted() bool {
	switch s.scheme.(type) {
	case sched.WFScheme, sched.WeightedStaticScheme:
		return true
	}
	return false
}

// takeFetchArgs snapshots the outgoing fetch payload; callers hold mu.
func (s *Submaster) takeFetchArgs(prefetch bool) exec.ChunkArgs {
	args := exec.ChunkArgs{
		Worker:   s.shard,
		ACP:      s.aggregateACP(),
		Results:  s.pending,
		Prefetch: prefetch,
	}
	s.pending = nil
	s.fetches++
	return args
}

// launchPrefetchLocked starts an asynchronous Prefetch fetch if the
// pipeline is idle. The root answers immediately — possibly with an
// empty reply — so this never parks. Callers hold mu.
func (s *Submaster) launchPrefetchLocked() {
	if s.fetching || s.rootDone || s.gathered < s.workers {
		return
	}
	s.fetching = true
	args := s.takeFetchArgs(true)
	s.bg.Add(1)
	go func() {
		defer s.bg.Done()
		g, err := s.root.call(args)
		s.mu.Lock()
		defer s.mu.Unlock()
		s.fetching = false
		if err != nil {
			// The results rode on this call; without knowing whether the
			// root got them, the run cannot continue safely.
			s.rootErr = err
		} else {
			s.absorbReplyLocked(g)
		}
		s.cond.Broadcast()
	}()
}

// blockingFetchLocked performs a plain (parkable) fetch, dropping mu
// for the duration of the RPC. Only called when the shard is quiescent
// — see the type comment for why that makes parking at the root safe.
// Callers hold mu; it is held again on return.
func (s *Submaster) blockingFetchLocked() error {
	s.fetching = true
	args := s.takeFetchArgs(false)
	s.mu.Unlock()
	g, err := s.root.call(args)
	s.mu.Lock()
	s.fetching = false
	if err != nil {
		s.rootErr = err
		s.cond.Broadcast()
		return err
	}
	s.absorbReplyLocked(g)
	s.cond.Broadcast()
	return nil
}

// absorbReplyLocked files a root reply; callers hold mu.
func (s *Submaster) absorbReplyLocked(g grant) {
	switch {
	case g.stop:
		s.rootDone = true
	case g.assign.Size > 0:
		s.buffered = append(s.buffered, g.assign)
	}
}
