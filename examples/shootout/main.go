// Shootout: every self-scheduling scheme races on the real TCP
// runtime — same Mandelbrot job, same four TCP workers (two of them
// emulated 3× slower), one row per scheme. The results are verified
// bit-identical across schemes before the table prints, demonstrating
// that scheduling only changes *when* work happens, never *what* is
// computed.
//
// Run with: go run ./examples/shootout
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"os"
	"sort"
	"text/tabwriter"

	"loopsched"
)

const (
	width   = 400
	height  = 300
	maxIter = 200
	workers = 4
)

func main() {
	params := loopsched.MandelbrotParams{
		Region: loopsched.PaperRegion, Width: width, Height: height, MaxIter: maxIter,
	}
	kernel := func(col int) []byte {
		rows, _ := loopsched.MandelbrotColumn(params, col)
		buf := make([]byte, 2*len(rows))
		for r, n := range rows {
			buf[2*r] = byte(n)
			buf[2*r+1] = byte(n >> 8)
		}
		return buf
	}

	schemes := []string{"SS", "CSS(16)", "GSS", "TSS", "FSS", "FISS", "TFSS", "WF",
		"DTSS", "DFSS", "DFISS", "DTFSS", "DGSS", "DCSS(16)"}

	type row struct {
		name   string
		tp     float64
		chunks int
	}
	var rows []row
	var reference [][]byte

	for _, name := range schemes {
		scheme, err := loopsched.LookupScheme(name)
		if err != nil {
			log.Fatal(err)
		}
		results, rep := race(scheme, kernel)
		if reference == nil {
			reference = results
		} else {
			for c := range results {
				if !bytes.Equal(results[c], reference[c]) {
					log.Fatalf("%s: column %d differs from reference!", name, c)
				}
			}
		}
		rows = append(rows, row{name: name, tp: rep.Tp, chunks: rep.Chunks})
	}

	sort.SliceStable(rows, func(i, j int) bool { return rows[i].tp < rows[j].tp })
	tw := tabwriter.NewWriter(os.Stdout, 4, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "scheme\twall(s)\tchunks\tmsgs/column")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.3f\t%d\t%.3f\n", r.name, r.tp, r.chunks,
			float64(r.chunks)/float64(width))
	}
	tw.Flush()
	fmt.Printf("\nall %d schemes produced bit-identical results over real TCP\n", len(schemes))
	fmt.Println("(wall times on shared CPUs are noisy; the chunk counts are the")
	fmt.Println(" schemes' signature: SS pays one RPC per column, TSS/TFSS ~20 total)")
}

// race runs one scheme over a fresh self-hosted TCP master — Run wires
// the loopback listener and the worker connections — and returns its
// results and report. The workers live in this process, so the kernel
// parks each column locally on its way onto the wire.
func race(scheme loopsched.Scheme, kernel loopsched.Kernel) ([][]byte, loopsched.Report) {
	results := make([][]byte, width)
	specs := make([]*loopsched.WorkerSpec, workers)
	for id := range specs {
		specs[id] = &loopsched.WorkerSpec{WorkScale: 1}
		if id >= workers/2 {
			specs[id].WorkScale = 3
		}
	}
	rep, err := loopsched.Run(context.Background(), loopsched.RunSpec{
		Backend:  loopsched.BackendRPC,
		Scheme:   scheme,
		Workload: loopsched.Uniform{N: width},
		Workers:  specs,
		Kernel: func(col int) []byte {
			buf := kernel(col)
			results[col] = buf
			return buf
		},
		ACP: loopsched.ACPModel{Scale: 10},
	})
	if err != nil {
		log.Fatal(err)
	}
	return results, rep
}
