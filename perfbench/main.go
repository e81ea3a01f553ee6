// Command perfbench is loopsched's end-to-end benchmark. It drives the
// public loopsched.Run from one closed-loop caller — one Run after
// another — on the workload named by -workload, checks every Run's
// outputs, and prints the metrics as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, from untraced
// Runs. With -trace 1 they are the per-layer ones, from a separate
// traced run plus isolated replays of single layers. See README.md for
// every workload and metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// Runs has every measured untraced Run and Setup the set-up
	// repetitions, for the run record only.
	Runs  []runSample `json:"-"`
	Setup setupResult `json:"-"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 10, "measured seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		outDir  = flag.String("out", ".bench_build", "directory for the run record and span file")
		commit  = flag.String("commit", "unknown", "source commit, recorded in the run metadata")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *outDir, *commit); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// hardLimit bounds a whole invocation: past it every Run returns the
// context's error and counts as failed.
const hardLimit = 150 * time.Second

func run(name string, seed int64, seconds float64, trace int, outDir, commit string) error {
	def, err := lookupWorkload(name)
	if err != nil {
		return err
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive, got %g", seconds)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	// A Run that hangs fails at hardLimit instead of stalling the run.
	ctx, cancel := context.WithTimeout(context.Background(), hardLimit)
	defer cancel()
	budget := time.Duration(seconds * float64(time.Second))
	meta := collectMeta(def.name, seed, trace, commit)
	steal0, total0, statOK := cpuTimes()

	var res result
	var spans *spanRecorder
	if trace == 0 {
		res, err = endToEnd(ctx, def, seed, budget)
	} else {
		spans = newSpanRecorder()
		res, err = perLayer(ctx, def, seed, budget, spans)
	}
	if err != nil {
		return err
	}
	meta.StealFrac = stealSince(steal0, total0, statOK)
	if err := writeRecord(outDir, meta, res, spans); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%d of %d Runs failed their checks", res.Failed, res.Attempted)
	}
	return nil
}

// writeRecord prints the run metadata and every metric in readable
// form, then saves them (and the spans, for a traced run) under dir.
func writeRecord(dir string, meta runMeta, res result, spans *spanRecorder) error {
	mj, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	fmt.Println("meta", string(mj))
	for _, k := range sortedKeys(res.Metrics) {
		m := res.Metrics[k]
		fmt.Printf("%-34s %14.6g %s\n", k, m.Value, m.Unit)
	}
	fmt.Printf("%-34s %14d of %d Runs\n", "failed", res.Failed, res.Attempted)

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("perfbench-%s-seed%d-trace%d", meta.Workload, meta.Seed, meta.Trace))
	type runJSON struct {
		Wall   float64 `json:"wall_s"`
		CPU    float64 `json:"cpu_s"`
		Sys    float64 `json:"sys_s"`
		Allocs uint64  `json:"allocs"`
		GC     uint32  `json:"gc_cycles"`
		Ctxsw  int64   `json:"ctxsw"`
		OK     bool    `json:"ok"`
		Fail   string  `json:"failure,omitempty"`
	}
	runs := make([]runJSON, 0, len(res.Runs))
	for _, s := range res.Runs {
		runs = append(runs, runJSON{s.wall, s.user + s.sys, s.sys, s.mallocs, s.gc, s.ctxsw, s.ok, s.failMsg})
	}
	rec, err := json.MarshalIndent(struct {
		Meta   runMeta   `json:"meta"`
		Result result    `json:"result"`
		Runs   []runJSON `json:"untraced_runs"`
		Setup  []float64 `json:"setup_s"`
		Serial []float64 `json:"serial_s"`
	}{meta, res, runs, res.Setup.setup, res.Setup.serial}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", rec, 0o644); err != nil {
		return err
	}
	if spans != nil {
		return spans.writeFile(base + ".spans.json")
	}
	return nil
}
