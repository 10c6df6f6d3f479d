//go:build !amd64 || noasm

package simd

// Portable build (non-amd64 architectures, or -tags noasm): every kernel is
// the pure-Go reference. Results are bit-identical to the assembly path by
// construction — the reference defines the canonical semantics.

// Impl names the active kernel implementation.
func Impl() string { return "portable" }

// BlockImpl names the implementation serving the block kernels.
func BlockImpl() string { return "portable" }

// HasAVX512 reports whether the AVX-512 block tier is active (never, on
// the portable build).
func HasAVX512() bool { return false }

func edBlocks16(a, b []float64, bound float64) (float64, int) {
	return edBlocks16Ref(a, b, bound)
}

// Prefetch is a no-op on the portable build: refinement reads its rows
// exactly as it would without the hint.
func Prefetch(row []float64, lines int) {}

func dotBlocks16(a, b []float64) (float64, int) {
	return dotBlocks16Ref(a, b)
}

func projectTiles(basis []float64, l, n int, rows, out []float64) (mt, lt int) { return 0, 0 }

func lookupAccumBlock(words []byte, n, l int, table []float64, out []float64, bsf float64, surv []int32) int {
	return lookupAccumBlockRef(words, n, l, table, out, bsf, surv)
}

// useVBMI is the byte pass's gate: off on the portable build, where
// LookupAccumBlockFastScan runs the reference.
const useVBMI = false

// lookupByteBlock is never called on the portable build (useVBMI is false).
func lookupByteBlock(words []byte, n, l int, bt *ByteTable, table []float64, thr int, bsf float64, out []float64, surv []int32, base int) (survivors, kept int) {
	return 0, 0
}

func quantizeTable(table []float64, scale float64, q []uint8) { quantizeRef(table, scale, q) }

func survivors(out []float64, bsf float64, surv []int32) int {
	return survivorsRef(out, bsf, surv)
}
