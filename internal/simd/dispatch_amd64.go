//go:build amd64 && !noasm

package simd

import "os"

// useAVX2 gates the assembly kernels. It is established once at init from
// CPUID (see cpuid_amd64.go); setting SOFA_NOSIMD in the environment forces
// the portable reference at runtime, which gives an honest same-binary A/B
// for the asm-vs-portable benchmarks without rebuilding with -tags noasm.
var useAVX2 = os.Getenv("SOFA_NOSIMD") == "" && detectAVX2FMA()

// useAVX512 gates the AVX-512 tier of the BLOCK kernels (the per-series
// kernels top out at AVX2 — their per-call overhead, not lane width, is
// the bottleneck, which is what the block kernels exist to fix). It
// requires the AVX2 tier (so SOFA_NOSIMD kills both), AVX512F and the OS
// having enabled opmask+ZMM state. SOFA_NOAVX512 pins the block kernels to
// the AVX2 path for same-binary tier A/Bs.
var useAVX512 = useAVX2 && os.Getenv("SOFA_NOAVX512") == "" && detectAVX512()

// Impl names the active kernel implementation: "avx2" when the hardware
// kernels are dispatched, "portable" otherwise.
func Impl() string {
	if useAVX2 {
		return "avx2"
	}
	return "portable"
}

// BlockImpl names the implementation serving the block kernels: "avx512",
// "avx2" or "portable". It is reported separately from Impl because the
// AVX-512 tier exists only at block granularity.
func BlockImpl() string {
	if useAVX512 {
		return "avx512"
	}
	return Impl()
}

// HasAVX512 reports whether the AVX-512 block tier is active (CI's
// skip-not-fail lane logs it explicitly).
func HasAVX512() bool { return useAVX512 }

func edBlocks16(a, b []float64, bound float64) (float64, int) {
	if useAVX2 {
		return edBlocks16AVX2(a, b, bound)
	}
	return edBlocks16Ref(a, b, bound)
}

func dotBlocks16(a, b []float64) (float64, int) {
	if useAVX2 {
		return dotBlocks16AVX2(a, b)
	}
	return dotBlocks16Ref(a, b)
}

func lbdGatherBlocks8(word []byte, qr, lower, upper, weights []float64, alphabet int, bsf float64) (float64, int) {
	if useAVX2 {
		return lbdGatherBlocks8AVX2(word, qr, lower, upper, weights, alphabet, bsf)
	}
	return lbdGatherBlocks8Ref(word, qr, lower, upper, weights, alphabet, bsf)
}

// lookupAccumBlock routes the staged table-lookup block kernel. The vector
// bodies run both stages over the full 8-position groups and return how
// many lanes outlived stage 1; position tails and the AVX2 tier's last
// n%4 series are finished here. A block no lane of which outlived stage 1
// has no survivor (the later positions only add), so the list is skipped.
func lookupAccumBlock(words []byte, n, l int, table []float64, alphabet int, out []float64, bsf float64, surv []int32) int {
	nb := l &^ (lbdBlock - 1)
	nf := n // series covered by the vector body
	if !useAVX512 {
		nf = n &^ 3
	}
	if !useAVX2 || nb == 0 || nf == 0 {
		return lookupAccumBlockRef(words, n, l, table, alphabet, out, bsf, surv)
	}
	var alive int
	if useAVX512 {
		alive = lookupBlockAVX512(words, n, l, table, alphabet, out, bsf)
	} else {
		alive = lookupBlockAVX2(words, nf, l, table, alphabet, out, bsf)
	}
	for i := nf; i < n; i++ {
		out[i] = LookupAccumEASeq(words[i*l:(i+1)*l], table, alphabet, bsf)
	}
	if alive == 0 && nf == n {
		return 0
	}
	if nb < l {
		lookupBlockTail(words, nf, l, nb, table, alphabet, out, bsf)
	}
	return survivors(out[:n], bsf, surv)
}

// lookupBlockTail appends the final sub-8 positions nb..l-1, sequentially,
// to the partial sum of every series that is still alive.
func lookupBlockTail(words []byte, n, l, nb int, table []float64, alphabet int, out []float64, bsf float64) {
	for i := 0; i < n; i++ {
		sum := out[i]
		if sum > bsf {
			continue
		}
		row := words[i*l+nb : (i+1)*l]
		for j, sym := range row {
			sum += table[(nb+j)*alphabet+int(sym)]
		}
		out[i] = sum
	}
}

// survivors is survivorsRef, with VPCOMPRESSD writing the list on the
// AVX-512 tier.
func survivors(out []float64, bsf float64, surv []int32) int {
	if useAVX512 {
		return survivorsAVX512(out, bsf, surv)
	}
	return survivorsRef(out, bsf, surv)
}

// lbdGatherBlocks computes every series' partial sum over the full
// 8-position groups into out[:n]; LBDGatherBlockEA appends position tails in
// shared Go code. The AVX-512 body covers every series (tail stripes run
// under a K mask); the AVX2 body covers the full stripes of 4 and leaves the
// remaining <4 series to the reference.
func lbdGatherBlocks(words []byte, n, l int, qr, lower, upper, weights []float64, alphabet int, out []float64) {
	if useAVX512 {
		lbdGatherBlockAVX512(words, n, l, qr, lower, upper, weights, alphabet, out)
		return
	}
	if useAVX2 {
		if nf := n &^ 3; nf > 0 {
			lbdGatherBlockAVX2(words, nf, l, qr, lower, upper, weights, alphabet, out)
			if nf < n {
				lbdGatherBlockRef(words[nf*l:], n-nf, l, qr, lower, upper, weights, alphabet, out[nf:])
			}
			return
		}
	}
	lbdGatherBlockRef(words, n, l, qr, lower, upper, weights, alphabet, out)
}

// Assembly kernels (kernels_amd64.s). Each processes only the full blocks
// of its input and returns the reduced sum over the processed prefix plus
// the index of the first unprocessed element; the exported wrappers in
// kernels.go finish the tail in shared Go code.

//go:noescape
func edBlocks16AVX2(a, b []float64, bound float64) (sum float64, idx int)

//go:noescape
func dotBlocks16AVX2(a, b []float64) (sum float64, idx int)

//go:noescape
func lbdGatherBlocks8AVX2(word []byte, qr, lower, upper, weights []float64, alphabet int, bsf float64) (sum float64, idx int)

// Block kernel assembly (kernels_block_amd64.s).

// The staged lookup bodies need l >= 8 and, for AVX2, n a multiple of 4.

//go:noescape
func lookupBlockAVX2(words []byte, n, l int, table []float64, alphabet int, out []float64, bsf float64) (alive int)

//go:noescape
func lookupBlockAVX512(words []byte, n, l int, table []float64, alphabet int, out []float64, bsf float64) (alive int)

//go:noescape
func survivorsAVX512(out []float64, bsf float64, surv []int32) int

//go:noescape
func lbdGatherBlockAVX2(words []byte, n, l int, qr, lower, upper, weights []float64, alphabet int, out []float64)

//go:noescape
func lbdGatherBlockAVX512(words []byte, n, l int, qr, lower, upper, weights []float64, alphabet int, out []float64)
