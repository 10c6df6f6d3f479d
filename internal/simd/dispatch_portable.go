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

func dotBlocks16(a, b []float64) (float64, int) {
	return dotBlocks16Ref(a, b)
}

func lbdGatherBlocks8(word []byte, qr, lower, upper, weights []float64, alphabet int, bsf float64) (float64, int) {
	return lbdGatherBlocks8Ref(word, qr, lower, upper, weights, alphabet, bsf)
}

func lookupAccumBlock(words []byte, n, l int, table []float64, alphabet int, out []float64, bsf float64, surv []int32) int {
	return lookupAccumBlockRef(words, n, l, table, alphabet, out, bsf, surv)
}

func survivors(out []float64, bsf float64, surv []int32) int {
	return survivorsRef(out, bsf, surv)
}

func lbdGatherBlocks(words []byte, n, l int, qr, lower, upper, weights []float64, alphabet int, out []float64) {
	lbdGatherBlockRef(words, n, l, qr, lower, upper, weights, alphabet, out)
}
