//go:build amd64 && !noasm

package simd

import "os"

// useAVX2 gates the assembly kernels. It is established once at init from
// CPUID (see cpuid_amd64.go); setting SOFA_NOSIMD in the environment forces
// the portable reference at runtime, which gives an honest same-binary A/B
// for the asm-vs-portable benchmarks without rebuilding with -tags noasm.
var useAVX2 = os.Getenv("SOFA_NOSIMD") == "" && detectAVX2FMA()

// useAVX512 gates the AVX-512 tier of the BLOCK kernels: the leaf-at-a-time
// LBD kernels and Project's row tile. The per-series kernels (one distance
// per call) stay at AVX2 — their per-call overhead, not lane width, is the
// bottleneck, which is what the block kernels exist to fix. It requires the
// AVX2 tier (so SOFA_NOSIMD kills both), AVX512F and the OS having enabled
// opmask+ZMM state. SOFA_NOAVX512 pins the block kernels to the AVX2 path
// for same-binary tier A/Bs.
var useAVX512 = useAVX2 && os.Getenv("SOFA_NOAVX512") == "" && detectAVX512()

// useVBMI gates the byte pass of LookupAccumBlockFastScan, the tier above
// AVX-512: it needs the AVX-512 tier (so SOFA_NOAVX512 and SOFA_NOSIMD turn
// it off too) plus the BW and VBMI byte instructions. Below it the fast-scan
// entry runs the exact staged kernel of the tier.
var useVBMI = useAVX512 && detectVBMI()

// Impl names the active kernel implementation: "avx2" when the hardware
// kernels are dispatched, "portable" otherwise.
func Impl() string {
	if useAVX2 {
		return "avx2"
	}
	return "portable"
}

// BlockImpl names the implementation serving the block kernels:
// "avx512vbmi" (the AVX-512 kernels plus the byte pass), "avx512", "avx2" or
// "portable". It is reported separately from Impl because the AVX-512 tiers
// exist only at block granularity.
func BlockImpl() string {
	if useVBMI {
		return "avx512vbmi"
	}
	if useAVX512 {
		return "avx512"
	}
	return Impl()
}

// HasAVX512 reports whether an AVX-512 block tier (avx512 or avx512vbmi) is
// active.
func HasAVX512() bool { return useAVX512 }

func edBlocks16(a, b []float64, bound float64) (float64, int) {
	if useAVX2 {
		return edBlocks16AVX2(a, b, bound)
	}
	return edBlocks16Ref(a, b, bound)
}

// Prefetch hints the first lines 64-byte cache lines of row into cache
// (PREFETCHT0), capped at the row's length. It is only a hint: it never
// faults and changes no value. The portable tier (SOFA_NOSIMD, -tags noasm,
// other architectures) makes it a no-op.
func Prefetch(row []float64, lines int) {
	if useAVX2 {
		prefetchLines(row, min(lines, (len(row)+7)/8))
	}
}

func dotBlocks16(a, b []float64) (float64, int) {
	if useAVX2 {
		return dotBlocks16AVX2(a, b)
	}
	return dotBlocks16Ref(a, b)
}

// projectTiles runs the tier's register tile over the full 16-element blocks
// of rows [0, mt) × basis rows [0, lt) and returns that grid; Project does
// the rest. The AVX-512 tile covers every row and l&^3 basis rows, the AVX2
// tile every basis row and m-m%3 rows, the portable tier nothing.
//
// The tile kernel runs one tile's rows per call, and the next tile's rows
// are hinted into cache (PREFETCHT0) before each call: a build's rows stream
// from DRAM, and the arithmetic on one tile hides the fetch of the next
// (measured with internal/sfa's BenchmarkWord, block path).
func projectTiles(basis []float64, l, n int, rows, out []float64) (mt, lt int) {
	m, t := len(rows)/n, 0
	switch {
	case n < edBlock:
		return 0, 0
	case useAVX512 && l >= 4:
		t, mt, lt = 2, m, l&^3
	case useAVX2 && m >= 3:
		t, mt, lt = 3, m-m%3, l
	default:
		return 0, 0
	}
	for r := 0; r < mt; r += t {
		e := min(r+t, mt)
		if e < m {
			prefetchLines(rows[e*n:], (min(e+t, m)-e)*n/8)
		}
		if t == 2 {
			projectAVX512(basis, rows[r*n:e*n], out[r*l:e*l], l, n, e-r)
		} else {
			projectAVX2(basis, rows[r*n:e*n], out[r*l:e*l], l, n)
		}
	}
	return mt, lt
}

// lookupAccumBlock routes the staged table-lookup block kernel. The vector
// bodies run both stages over the full 8-position groups and return how
// many lanes outlived stage 1; position tails and the AVX2 tier's last
// n%4 series are finished here. A block no lane of which outlived stage 1
// has no survivor (the later positions only add), so the list is skipped.
func lookupAccumBlock(words []byte, n, l int, table []float64, out []float64, bsf float64, surv []int32) int {
	nb := l &^ (lbdBlock - 1)
	nf := n // series covered by the vector body
	if !useAVX512 {
		nf = n &^ 3
	}
	if !useAVX2 || nb == 0 || nf == 0 {
		return lookupAccumBlockRef(words, n, l, table, out, bsf, surv)
	}
	var alive int
	if useAVX512 {
		alive = lookupBlockAVX512(words, n, l, table, out, bsf)
	} else {
		alive = lookupBlockAVX2(words, nf, l, table, out, bsf)
	}
	for i := nf; i < n; i++ {
		out[i] = LookupAccumEASeq(words[i*l:(i+1)*l], table, bsf)
	}
	if alive == 0 && nf == n {
		return 0
	}
	if nb < l {
		lookupBlockTail(words, nf, l, nb, table, out, bsf)
	}
	return survivors(out[:n], bsf, surv)
}

// lookupBlockTail appends the final sub-8 positions nb..l-1, sequentially,
// to the partial sum of every series that is still alive.
func lookupBlockTail(words []byte, n, l, nb int, table []float64, out []float64, bsf float64) {
	for i := 0; i < n; i++ {
		sum := out[i]
		if sum > bsf {
			continue
		}
		row := words[i*l+nb : (i+1)*l]
		for j, sym := range row {
			sum += table[(nb+j)*Alphabet+int(sym)]
		}
		out[i] = sum
	}
}

// lookupByteBlock runs the byte pass and the exact pass of its survivors on
// the VBMI tier (the only tier LookupAccumBlockFastScan calls it on).
func lookupByteBlock(words []byte, n, l int, bt *ByteTable, table []float64, thr int, bsf float64, out []float64, surv []int32, base int) (survivors, kept int) {
	return lookupByteVBMI(words, n, l, bt.q, &bt.perm, table, thr, bsf, out, surv, base)
}

// quantizeTable is quantizeRef, in assembly on the VBMI tier.
func quantizeTable(table []float64, scale float64, q []uint8) {
	if useVBMI {
		quantizeVBMI(table, scale, q)
		return
	}
	quantizeRef(table, scale, q)
}

// survivors is survivorsRef, with VPCOMPRESSD writing the list on the
// AVX-512 tier.
func survivors(out []float64, bsf float64, surv []int32) int {
	if useAVX512 {
		return survivorsAVX512(out, bsf, surv)
	}
	return survivorsRef(out, bsf, surv)
}

// Assembly kernels (kernels_amd64.s). Each processes only the full blocks
// of its input and returns the reduced sum over the processed prefix plus
// the index of the first unprocessed element; the exported wrappers in
// kernels.go finish the tail in shared Go code.

//go:noescape
func edBlocks16AVX2(a, b []float64, bound float64) (sum float64, idx int)

//go:noescape
func dotBlocks16AVX2(a, b []float64) (sum float64, idx int)

// The projection tiles need n >= 16; projectAVX512 takes m = 1 or 2 rows,
// projectAVX2 exactly 3.

//go:noescape
func projectAVX512(basis, rows, out []float64, l, n, m int)

//go:noescape
func projectAVX2(basis, rows, out []float64, l, n int)

//go:noescape
func prefetchLines(row []float64, lines int)

// Block kernel assembly (kernels_block_amd64.s).

// The staged lookup bodies need l >= 8 and, for AVX2, n a multiple of 4.

//go:noescape
func lookupBlockAVX2(words []byte, n, l int, table []float64, out []float64, bsf float64) (alive int)

//go:noescape
func lookupBlockAVX512(words []byte, n, l int, table []float64, out []float64, bsf float64) (alive int)

// Byte pass assembly (kernels_byte_amd64.s).

//go:noescape
func lookupByteVBMI(words []byte, n, l int, q []uint8, perm *[3][64]byte, table []float64, thr int, bsf float64, out []float64, surv []int32, base int) (survivors, kept int)

//go:noescape
func quantizeVBMI(table []float64, scale float64, q []uint8)

//go:noescape
func survivorsAVX512(out []float64, bsf float64, surv []int32) int
