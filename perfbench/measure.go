package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 3

// minRuns is the fewest measured Runs a phase takes even when it
// overruns its time budget, so every median has samples behind it.
const minRuns = 5

// setupResult is what set-up hands the measured phase.
type setupResult struct {
	setup  []float64 // seconds per repetition
	serial []float64 // serial reference seconds per repetition
	chunks int       // Report.Chunks of the last warm-up Run
}

// setup builds the inputs, times the serial reference and runs one
// warm-up Run, setupReps times. Each repetition starts from the seed,
// so it pays the full input cost again.
func setup(ctx context.Context, def workloadDef, seed int64) (*instance, setupResult, error) {
	var res setupResult
	var in *instance
	for r := 0; r < setupReps; r++ {
		start := time.Now()
		in = build(def, seed)
		serial := in.serialBaseline()
		rep, _, err := in.run(ctx, in.spec(nil, nil))
		if err != nil {
			return nil, res, fmt.Errorf("warm-up run: %w", err)
		}
		res.setup = append(res.setup, time.Since(start).Seconds())
		res.serial = append(res.serial, serial.Seconds())
		res.chunks = rep.Chunks
	}
	return in, res, nil
}

// procSample is a point-in-time reading of the process counters.
type procSample struct {
	user, sys time.Duration
	nvcsw     int64
	nivcsw    int64
	mallocs   uint64
	bytes     uint64
	gc        uint32
}

func readProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{
		user:    time.Duration(ru.Utime.Nano()),
		sys:     time.Duration(ru.Stime.Nano()),
		nvcsw:   ru.Nvcsw,
		nivcsw:  ru.Nivcsw,
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
		gc:      ms.NumGC,
	}
}

// runSample is one measured Run: its wall time and the process
// counters' change across it.
type runSample struct {
	wall    float64 // seconds
	user    float64 // seconds
	sys     float64 // seconds
	ctxsw   int64
	mallocs uint64
	bytes   uint64
	gc      uint32
	chunks  int
	ok      bool
	failMsg string
	serial  float64 // serial baseline seconds, taken right after the Run
}

func sample(before, after procSample, wall time.Duration, chunks int, err error) runSample {
	s := runSample{
		wall:    wall.Seconds(),
		user:    (after.user - before.user).Seconds(),
		sys:     (after.sys - before.sys).Seconds(),
		ctxsw:   (after.nvcsw - before.nvcsw) + (after.nivcsw - before.nivcsw),
		mallocs: after.mallocs - before.mallocs,
		bytes:   after.bytes - before.bytes,
		gc:      after.gc - before.gc,
		chunks:  chunks,
		ok:      err == nil,
	}
	if err != nil {
		s.failMsg = err.Error()
	}
	return s
}

// measured runs one untraced Run between two counter readings and
// verifies its outputs.
func measured(ctx context.Context, in *instance) runSample {
	spec := in.spec(nil, nil)
	before := readProc()
	rep, wall, runErr := in.execute(ctx, spec)
	after := readProc()
	err := in.verify(rep, runErr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: run failed: %v\n", in.def.name, err)
	}
	return sample(before, after, wall, rep.Chunks, err)
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio is a / b, or 0 when b is 0, so a metric never becomes NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// okSamples projects f over the Runs that passed their checks.
func okSamples(samples []runSample, f func(runSample) float64) []float64 {
	var out []float64
	for _, s := range samples {
		if s.ok {
			out = append(out, f(s))
		}
	}
	return out
}

func failures(samples []runSample) int {
	n := 0
	for _, s := range samples {
		if !s.ok {
			n++
		}
	}
	return n
}
