package loopsched

import "testing"

// TestRunSpecAdaptersDoNotCopySpec: body() and kernel() run once per
// Run on every backend. A wrapper closure over the receiver would move
// the whole RunSpec to the heap on each call, whichever branch is
// taken, so with the function already set neither may allocate.
func TestRunSpecAdaptersDoNotCopySpec(t *testing.T) {
	spec := RunSpec{
		Body:   func(int) {},
		Kernel: func(int) []byte { return nil },
	}
	if avg := testing.AllocsPerRun(100, func() {
		if _, err := spec.body(); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("body() allocates %.1f objects per call, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if _, err := spec.kernel(); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("kernel() allocates %.1f objects per call, want 0", avg)
	}
}
