// Mandelfarm: the paper's experiment for real — a master and slave
// workers speaking the binary wire protocol over TCP render the
// Mandelbrot set, one image column per loop iteration, with results
// piggy-backed on each work request exactly as section 5 describes.
// Heterogeneity is emulated by giving some workers a WorkScale (they
// redo each column, like a 166 MHz UltraSPARC 1 next to a 440 MHz
// UltraSPARC 10).
//
// Run with: go run ./examples/mandelfarm [-scheme DTSS] [-o farm.png]
package main

import (
	"context"
	"flag"
	"fmt"
	"image"
	"image/png"
	"log"
	"os"

	"loopsched"
)

func main() {
	var (
		schemeName = flag.String("scheme", "DTSS", "self-scheduling scheme")
		out        = flag.String("o", "mandelfarm.png", "output PNG")
		width      = flag.Int("width", 600, "image width (columns = loop iterations)")
		height     = flag.Int("height", 400, "image height")
		maxIter    = flag.Int("maxiter", 160, "escape-time bound")
	)
	flag.Parse()

	scheme, err := loopsched.LookupScheme(*schemeName)
	if err != nil {
		log.Fatal(err)
	}
	params := loopsched.MandelbrotParams{
		Region: loopsched.PaperRegion, Width: *width, Height: *height, MaxIter: *maxIter,
	}

	// The kernel computes one column and serialises it as bytes — the
	// payload that rides back to the master on the next request. The
	// run self-hosts master and workers in one process, so the kernel
	// also parks each column locally for the final assembly.
	columns := make([][]byte, *width)
	kernel := func(col int) []byte {
		rows, _ := loopsched.MandelbrotColumn(params, col)
		buf := make([]byte, len(rows))
		for r, n := range rows {
			buf[r] = shade(n, *maxIter)
		}
		columns[col] = buf
		return buf
	}

	// Four slaves over real loopback TCP: two fast, two emulated 3×
	// slower. Run self-hosts the master on an ephemeral port and wires
	// one RPC connection per worker.
	const workers = 4
	fmt.Printf("rendering under %s with %d TCP workers\n", scheme.Name(), workers)
	rep, err := loopsched.Run(context.Background(), loopsched.RunSpec{
		Backend:  loopsched.BackendRPC,
		Scheme:   scheme,
		Workload: loopsched.Uniform{N: *width},
		Workers: []*loopsched.WorkerSpec{
			{WorkScale: 1}, {WorkScale: 1}, {WorkScale: 3}, {WorkScale: 3},
		},
		Kernel: kernel,
		ACP:    loopsched.ACPModel{Scale: 10},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("done: %d columns in %d chunks, %.3fs wall, %d replans\n",
		rep.Iterations, rep.Chunks, rep.Tp, rep.Replans)

	// Assemble the image from the collected columns.
	img := image.NewGray(image.Rect(0, 0, *width, *height))
	for c, data := range columns {
		for r, v := range data {
			img.Pix[r*img.Stride+c] = v
		}
	}
	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := png.Encode(f, img); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote", *out)
}

func shade(n, maxIter int) byte {
	if n >= maxIter {
		return 0
	}
	return byte(255 - 200*n/maxIter)
}
