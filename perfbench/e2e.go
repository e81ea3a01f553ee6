package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"
)

// endToEnd measures the user-visible metrics on untraced Runs: set-up,
// then closed-loop Runs until the budget is spent (at least minRuns).
// Per-Run figures are medians over the Runs that passed their checks.
// Each Run is followed by a serial baseline, so efficiency is a ratio
// of two measurements a second apart: the host's speed drifts over a
// run, and a baseline taken once at set-up would carry that drift.
func endToEnd(ctx context.Context, def workloadDef, seed int64, budget time.Duration) (result, error) {
	in, su, err := setup(ctx, def, seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", def.name, err)
		return result{Correct: false, Attempted: 1, Failed: 1, Metrics: map[string]metric{}}, nil
	}
	runtime.GC()
	var samples []runSample
	deadline := time.Now().Add(budget)
	for len(samples) < minRuns || time.Now().Before(deadline) {
		s := measured(ctx, in)
		s.serial = in.serialBaseline().Seconds()
		samples = append(samples, s)
	}
	n := float64(def.n)
	makespan := median(okSamples(samples, func(s runSample) float64 { return s.wall }))
	failed := failures(samples)
	m := map[string]metric{
		"setup_s":              {median(su.setup), "s"},
		"makespan_s":           {makespan, "s"},
		"iters_per_s":          {ratio(n, makespan), "1/s"},
		"cpu_us_per_iter":      {median(okSamples(samples, func(s runSample) float64 { return (s.user + s.sys) / n * 1e6 })), "us"},
		"allocs_per_iter":      {median(okSamples(samples, func(s runSample) float64 { return float64(s.mallocs) / n })), "count"},
		"alloc_bytes_per_iter": {median(okSamples(samples, func(s runSample) float64 { return float64(s.bytes) / n })), "B"},
		"efficiency":           {median(okSamples(samples, func(s runSample) float64 { return s.serial / (s.wall * in.powerSum()) })), "ratio"},
		"success_frac":         {float64(len(samples)-failed) / float64(len(samples)), "ratio"},
	}
	return result{Correct: failed == 0, Attempted: len(samples), Failed: failed, Metrics: m, Runs: samples, Setup: su}, nil
}
