// Quantization sweep: compare the paper's four checkpoint quantization
// approaches on a genuinely trained embedding table, including the
// sampling-based automatic parameter selection of §5.2 — a compact
// reproduction of Figures 9-11 on your own terminal.
package main

import (
	"fmt"
	"log"

	"repro/internal/experiments"
	"repro/internal/quant"
	"repro/internal/wire"
)

func main() {
	fmt.Println("training a small DLRM to produce a representative checkpoint...")
	cv, err := experiments.TrainedCheckpoint(2048, 16, 30, 64, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checkpoint: %d embedding vectors of dim %d\n\n", len(cv.Vectors), cv.Dim)

	// Figure 9: mean L2 error by method and bit-width, the table
	// `benchgen -fig 9` prints.
	fig9, err := experiments.Fig9QuantError(cv)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(fig9.Render())

	// Automatic parameter selection on a sampled checkpoint (§5.2).
	fmt.Println("\nautomatic parameter selection (0.001% sampling profile):")
	for _, bits := range []int{2, 3, 4} {
		p, err := quant.SelectAdaptiveParams(cv.Vectors, bits,
			[]int{5, 10, 15, 20, 25, 30, 35, 40, 45, 50}, 1.0, 0.01, 1)
		if err != nil {
			log.Fatal(err)
		}
		imp, err := quant.ImprovementOverNaive(cv.Vectors, bits, p.NumBins, p.Ratio)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %d-bit: selected %d bins (improvement over naive: %.1f%%)\n",
			bits, p.NumBins, imp*100)
	}

	// Storage footprint: what one row adds to the CKP3 chunk a checkpoint
	// stores, index and accumulator included: an index gap under 128, as
	// at a 10 % touch rate, takes one byte.
	dim := cv.Dim
	fp32 := wire.F32ChunkLen([]int{0}, dim) - wire.F32ChunkLen(nil, dim)
	fmt.Printf("\nper-row checkpoint storage (dim-%d row, fp32 = %d bytes: values, index, accumulator):\n", dim, fp32)
	empty := (&wire.Chunk{}).EncodedLen()
	for _, bits := range []int{2, 3, 4, 8} {
		q, err := quant.Quantize(cv.Vectors[0], quant.Params{Method: quant.MethodAsymmetric, Bits: bits})
		if err != nil {
			log.Fatal(err)
		}
		row := (&wire.Chunk{Rows: []wire.Row{{Q: q}}}).EncodedLen() - empty
		fmt.Printf("  %d-bit: %d bytes (%.2fx smaller)\n", bits, row, float64(fp32)/float64(row))
	}
}
