package main

import (
	"context"
	"fmt"
	"hash/crc32"
	"math/rand"
	"sync/atomic"
	"time"

	"loopsched"
)

// workloadDef is one benchmark workload: a fixed loop shape run through
// loopsched.Run. The seed only picks inputs that leave that shape
// unchanged (see build).
type workloadDef struct {
	name    string
	backend loopsched.Backend
	scheme  func() loopsched.Scheme
	n       int
	scales  []int  // WorkScale per worker; len is p
	ledger  string // always explicit, so LOOPSCHED_LEDGER cannot change a run
	payload int    // result bytes per iteration on rpc; 0 on local
	mandel  bool   // kernel renders a Mandelbrot column
}

// ssIters is N for the two SS workloads: large enough that per-Run
// set-up (listener, dials, gather) is noise, small enough that a run
// holds a few dozen Runs to take the median of.
const ssIters = 50_000

const (
	mandelWidth  = 2000
	mandelHeight = 1000
	mandelIter   = 160
)

// workloads are the benchmark's inputs. Every one uses p = 2 (one
// worker per core of the 2-CPU machines it is sized for) and sets
// Transport and Ledger explicitly.
var workloads = []workloadDef{
	// The paper's experiment: kernel-bound with coarse chunks, so
	// scheme balance and kernel speed show.
	{
		name:    "mandel-hetero",
		backend: loopsched.BackendRPC,
		scheme:  loopsched.NewDTSS,
		n:       mandelWidth,
		scales:  []int{1, 3},
		ledger:  "off",
		payload: mandelHeight,
		mandel:  true,
	},
	// Every iteration a master round trip carrying 1 KiB: grants,
	// codec, syscalls and result copies.
	{
		name:    "ss-master-1k",
		backend: loopsched.BackendRPC,
		scheme:  loopsched.NewSS,
		n:       ssIters,
		scales:  []int{1, 1},
		ledger:  "off",
		payload: 1024,
	},
	// The same loop on the step ledger with 8 B results: one-sided
	// claims and deposits, almost no payload.
	{
		name:    "ss-ledger-8b",
		backend: loopsched.BackendRPC,
		scheme:  loopsched.NewSS,
		n:       ssIters,
		scales:  []int{1, 1},
		ledger:  "on",
		payload: 8,
	},
	// The in-process runtime: policy decisions and goroutine hand-offs,
	// no sockets.
	{
		name:    "css-local",
		backend: loopsched.BackendLocal,
		scheme:  func() loopsched.Scheme { return loopsched.NewCSS(4) },
		n:       1 << 21,
		scales:  []int{1, 1},
		ledger:  "off",
	},
}

func lookupWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// instance is a workload with its seed-derived inputs and the state the
// output checks read: a per-index counter and, for Mandelbrot, the
// columns the kernel produced.
type instance struct {
	def     workloadDef
	scales  []int
	delta   int32 // added to an index's counter per kernel call
	params  loopsched.MandelbrotParams
	payload []byte
	refCRC  uint32 // CRC of the serial render (Mandelbrot only)

	counts  []int32
	cols    [][]byte
	scratch []int32 // the serial baseline's counters
}

// build derives the inputs from the seed: which worker slot is slow, a
// sub-pixel shift of the region, the payload bytes and the counter
// step. None of them changes the loop's length, scheme or cost shape.
func build(def workloadDef, seed int64) *instance {
	rng := rand.New(rand.NewSource(seed))
	in := &instance{
		def:    def,
		scales: append([]int(nil), def.scales...),
		delta:  int32(1 + rng.Intn(8)),
		counts: make([]int32, def.n),
	}
	if rng.Intn(2) == 1 {
		for i, j := 0, len(in.scales)-1; i < j; i, j = i+1, j-1 {
			in.scales[i], in.scales[j] = in.scales[j], in.scales[i]
		}
	}
	// Every workload gets the shifted region: the mandelbrot layer
	// replay renders it on all of them.
	r := loopsched.PaperRegion
	dx := rng.Float64() * (r.XMax - r.XMin) / mandelWidth
	dy := rng.Float64() * (r.YMax - r.YMin) / mandelHeight
	r.XMin, r.XMax, r.YMin, r.YMax = r.XMin+dx, r.XMax+dx, r.YMin+dy, r.YMax+dy
	in.params = loopsched.MandelbrotParams{Region: r, Width: mandelWidth, Height: mandelHeight, MaxIter: mandelIter}
	if def.mandel {
		in.cols = make([][]byte, def.n)
	} else if def.payload > 0 {
		in.payload = make([]byte, def.payload)
		rng.Read(in.payload)
	}
	return in
}

// kernel returns the per-iteration function for counts (and cols, for
// Mandelbrot).
func (in *instance) kernel(counts []int32, cols [][]byte) loopsched.Kernel {
	delta := in.delta
	switch {
	case in.def.mandel:
		p := in.params
		return func(i int) []byte {
			atomic.AddInt32(&counts[i], delta)
			col := loopsched.MandelbrotShadedColumn(p, i)
			cols[i] = col
			return col
		}
	case in.payload != nil:
		payload := in.payload
		return func(i int) []byte {
			atomic.AddInt32(&counts[i], delta)
			return payload
		}
	default:
		return func(i int) []byte {
			atomic.AddInt32(&counts[i], delta)
			return nil
		}
	}
}

// spec is the RunSpec one measured Run executes. wrap, when non-nil,
// wraps the kernel (the traced run's spans); the scheme is never
// wrapped.
func (in *instance) spec(tele *loopsched.Telemetry, wrap func(loopsched.Kernel) loopsched.Kernel) loopsched.RunSpec {
	k := in.kernel(in.counts, in.cols)
	if wrap != nil {
		k = wrap(k)
	}
	workers := make([]*loopsched.WorkerSpec, len(in.scales))
	for i, s := range in.scales {
		workers[i] = &loopsched.WorkerSpec{WorkScale: s}
	}
	spec := loopsched.RunSpec{
		Scheme:    in.def.scheme(),
		Workload:  loopsched.Uniform{N: in.def.n, C: 1},
		Backend:   in.def.backend,
		Workers:   workers,
		Transport: "binary",
		Ledger:    in.def.ledger,
		Telemetry: tele,
	}
	if in.def.mandel {
		spec.ACP = loopsched.ACPModel{Scale: 10}
	}
	if in.def.backend == loopsched.BackendLocal {
		spec.Body = func(i int) { k(i) }
	} else {
		spec.Kernel = k
	}
	return spec
}

// execute runs the loop once and returns its report and wall time.
func (in *instance) execute(ctx context.Context, spec loopsched.RunSpec) (loopsched.Report, time.Duration, error) {
	start := time.Now()
	rep, err := loopsched.Run(ctx, spec)
	return rep, time.Since(start), err
}

// verify checks one Run's outputs and resets the check state for the
// next Run: no error, every iteration reported, each index's counter
// equal to delta times one worker's WorkScale (a skipped index reads 0
// and a repeated one the sum of two), and for Mandelbrot the assembled
// image's CRC equal to the serial render's.
func (in *instance) verify(rep loopsched.Report, runErr error) error {
	defer in.reset()
	if runErr != nil {
		return fmt.Errorf("run: %w", runErr)
	}
	if rep.Iterations != in.def.n {
		return fmt.Errorf("report has %d iterations, want %d", rep.Iterations, in.def.n)
	}
	for i, c := range in.counts {
		if !in.validCount(c) {
			return fmt.Errorf("index %d ran %d times (counter %d, step %d), want once per WorkScale %v",
				i, c/in.delta, c, in.delta, in.scales)
		}
	}
	if in.def.mandel {
		img := loopsched.AssembleMandelbrot(in.params, in.cols)
		if got := crc32.ChecksumIEEE(img.Pix); got != in.refCRC {
			return fmt.Errorf("image CRC %08x, serial render %08x", got, in.refCRC)
		}
	}
	return nil
}

func (in *instance) validCount(c int32) bool {
	for _, s := range in.scales {
		if c == in.delta*int32(s) {
			return true
		}
	}
	return false
}

func (in *instance) reset() {
	clear(in.counts)
	clear(in.cols)
}

// run executes and verifies one Run.
func (in *instance) run(ctx context.Context, spec loopsched.RunSpec) (loopsched.Report, time.Duration, error) {
	rep, d, err := in.execute(ctx, spec)
	return rep, d, in.verify(rep, err)
}

// serialBaseline times the single-thread reference for the efficiency
// metric. For Mandelbrot it is the serial RenderMandelbrot, whose CRC
// also becomes the reference the distributed image must match; for the
// other workloads it is the same kernel called once per index on one
// goroutine, with scratch counters so the Run's checks stay untouched.
func (in *instance) serialBaseline() time.Duration {
	if in.def.mandel {
		start := time.Now()
		img := loopsched.RenderMandelbrot(in.params)
		d := time.Since(start)
		in.refCRC = crc32.ChecksumIEEE(img.Pix)
		return d
	}
	// A trivial kernel's loop takes about a millisecond, so it is
	// repeated for serialBudget and the median loop taken.
	if in.scratch == nil {
		in.scratch = make([]int32, in.def.n)
	}
	k := in.kernel(in.scratch, nil)
	return time.Duration(repeat(serialBudget, func() float64 {
		start := time.Now()
		for i := 0; i < in.def.n; i++ {
			k(i)
		}
		return time.Since(start).Seconds()
	}) * float64(time.Second))
}

// serialBudget is how long serialBaseline repeats a non-Mandelbrot
// kernel's loop.
const serialBudget = 20 * time.Millisecond

// powerSum is Σ V_i with V_i = 1/WorkScale_i: the fast worker, the
// machine the serial baseline ran on, has power 1.
func (in *instance) powerSum() float64 {
	var s float64
	for _, w := range in.scales {
		s += 1 / float64(w)
	}
	return s
}
