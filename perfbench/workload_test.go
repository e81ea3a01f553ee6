package main

import (
	"context"
	"strings"
	"testing"
)

// smallInstance builds a workload at a test-sized N; Mandelbrot also
// shrinks its image to N columns.
func smallInstance(t *testing.T, name string, n int) *instance {
	t.Helper()
	def, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	def.n = n
	in := build(def, 7)
	in.params.Width, in.params.Height = n, 32
	in.serialBaseline()
	return in
}

// runWith executes one Run, lets corrupt tamper with the outputs the
// checks read, and returns the Run as the benchmark counts it.
func runWith(t *testing.T, in *instance, corrupt func()) runSample {
	t.Helper()
	before := readProc()
	rep, wall, err := in.execute(context.Background(), in.spec(nil, nil))
	after := readProc()
	corrupt()
	return sample(before, after, wall, rep.Chunks, in.verify(rep, err))
}

func TestOutputChecks(t *testing.T) {
	cases := []struct {
		name     string
		workload string
		corrupt  func(in *instance)
		want     string // substring of the failure; "" means the Run passes
	}{
		{"mandel clean", "mandel-hetero", func(*instance) {}, ""},
		{"mandel corrupted column", "mandel-hetero", func(in *instance) { in.cols[5][3] ^= 0xff }, "image CRC"},
		{"mandel skipped index", "mandel-hetero", func(in *instance) { in.counts[9] = 0 }, "index 9 ran 0 times"},
		{"mandel repeated index", "mandel-hetero", func(in *instance) { in.counts[9] += in.delta }, "index 9 ran"},
		{"ledger clean", "ss-ledger-8b", func(*instance) {}, ""},
		{"ledger skipped index", "ss-ledger-8b", func(in *instance) { in.counts[100] = 0 }, "index 100 ran 0 times"},
		{"local clean", "css-local", func(*instance) {}, ""},
		{"local skipped index", "css-local", func(in *instance) { in.counts[0] = 0 }, "index 0 ran 0 times"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := smallInstance(t, tc.workload, 256)
			s := runWith(t, in, func() { tc.corrupt(in) })
			if tc.want == "" {
				if !s.ok {
					t.Fatalf("clean Run failed its checks: %s", s.failMsg)
				}
				return
			}
			if got := failures([]runSample{s}); got != 1 {
				t.Fatalf("failures = %d, want the tampered Run counted as 1", got)
			}
			if !strings.Contains(s.failMsg, tc.want) {
				t.Fatalf("failure %q does not mention %q", s.failMsg, tc.want)
			}
		})
	}
}

// TestVerifyResetsState: a failed Run must not leak its counters into
// the next one, or one fault would fail every later Run.
func TestVerifyResetsState(t *testing.T) {
	in := smallInstance(t, "css-local", 256)
	if s := runWith(t, in, func() { in.counts[3] = 0 }); s.ok {
		t.Fatal("skipped index passed")
	}
	if s := runWith(t, in, func() {}); !s.ok {
		t.Fatalf("Run after a failure: %s", s.failMsg)
	}
}
