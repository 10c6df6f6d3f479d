package simd

import "math"

// The byte-lane first pass of the block LBD ("fast scan", after product
// quantization's fast scan: André, Kermarrec and Le Scouarnec, "Cache
// locality is not enough", PVLDB 2015).
//
// Table entries are nonnegative, so rounding every entry down to a multiple
// of a step Δ and adding the rounded entries with saturating byte adds gives
// a lower bound of the lower bound: a series whose byte sum already exceeds
// the bound cannot be a survivor of the exact kernel, and only the series the
// byte pass keeps run the exact float64 chain. The uint8 table is 256 bytes
// per position, four ZMM registers, so one two-source byte permute looks up
// half a position's row for 64 series at once.
//
// Quantization, per bound: Δ is the power of two with bound/Δ in (100, 200],
// entry t becomes q = min(255, ⌊t/Δ⌋), and a series is kept when its
// saturated sum is <= T = ⌊bound·(1 + l·2⁻⁵²)/Δ⌋ (T <= 200 < 255, so a
// saturated sum is always dropped). Soundness: a dropped series has
// Σq >= T+1, so its real sum Σt >= (T+1)Δ > bound·(1 + l·2⁻⁵²), and the l-1
// rounded adds of the float64 chain lose less than that factor, so its
// float64 sum exceeds the bound too. Bounds that are not positive, finite
// normal numbers (+Inf, 0, NaN, subnormals) skip the byte pass.
//
// A ByteTable quantized for one bound serves every bound in (100Δ, 200Δ]:
// as the k-NN bound of a query falls, the table is requantized about once
// per halving, so its cost (one pass over l·Alphabet entries) is paid a few
// times per query and worker, not per leaf.

// ByteTable is the uint8 form of one flat distance table at one step Δ, plus
// the scratch of the byte pass. The zero value is ready to use; its buffers
// are allocated at the first quantization and reused after. It is not safe
// for concurrent use: give each goroutine its own.
type ByteTable struct {
	q     []uint8 // [l*Alphabet] ⌊t/Δ⌋ capped at 255; a row is one position
	pad   []byte  // a block's last partial group, copied to a full one
	perm  [3][64]byte
	delta float64 // Δ; 0 while the table holds nothing valid
	l     int

	bypass int // calls left for the staged kernel (byteBypassCalls)
}

// Reset marks the table stale: the next LookupAccumBlockFastScan call
// quantizes its distance table afresh. Call it whenever the float64 table
// the ByteTable was quantized from changes.
func (b *ByteTable) Reset() { b.delta = 0 }

// byteBoundMin and byteBoundMax bracket the bounds the byte pass takes:
// inside them Δ and every t/Δ are exact powers-of-two scalings.
const (
	byteBoundMin = 0x1p-900
	byteBoundMax = 0x1p900
)

// byteGroup is the series count of one byte-pass group: one ZMM of lanes.
const byteGroup = 64

// LookupAccumBlockFastScan is LookupAccumBlockSurvivors with the byte pass in
// front: the same survivor list, ascending, and for every survivor the same
// out[i] bits (LookupAccumEASeq at +Inf). A non-survivor's out[i] is
// unspecified: the series the byte pass drops are not written at all.
//
// bt must have been Reset since table last changed (it is quantized from
// table lazily, and again whenever bsf leaves its (100Δ, 200Δ] range).
// Blocks the byte tier does not serve — another tier, l not a multiple of
// 16, a bound outside [2⁻⁹⁰⁰, 2⁹⁰⁰], a nil surv (the count alone) — run
// LookupAccumBlockSurvivors.
//
// Contract: that of LookupAccumBlockSurvivors.
func LookupAccumBlockFastScan(words []byte, n int, table []float64, bt *ByteTable, out []float64, bsf float64, surv []int32) int {
	if n == 0 {
		return 0
	}
	l := checkLookupBlock(words, n, table, out, surv)
	if !useVBMI || l%16 != 0 || !(bsf >= byteBoundMin && bsf <= byteBoundMax) || surv == nil {
		return lookupAccumBlock(words, n, l, table, out, bsf, surv)
	}
	if !bt.fits(l, bsf) {
		bt.quantize(table, l, bsf)
	} else if bt.bypass > 0 {
		bt.bypass--
		return lookupAccumBlock(words, n, l, table, out, bsf, surv)
	}
	thr := int(bsf * (1 + float64(l)*0x1p-52) / bt.delta)
	full := n &^ (byteGroup - 1)
	k, kept := 0, 0
	if full > 0 {
		k, kept = lookupByteBlock(words[:full*l], full, l, bt, table, thr, bsf, out, surv, 0)
	}
	if full < n {
		pad := bt.pad[:byteGroup*l]
		copy(pad, words[full*l:n*l]) // the rest of pad is stale and masked off
		k2, kept2 := lookupByteBlock(pad, n-full, l, bt, table, thr, bsf, out[full:], surv[k:], full)
		k, kept = k+k2, kept+kept2
	}
	if 2*kept > n {
		bt.bypass = byteBypassCalls
	}
	return k
}

// byteBypassCalls is how many calls the staged kernel serves after a block
// whose byte pass kept more than half of it. The exact pass on a kept
// series costs more than the staged kernel's per series (it cannot share
// the staged kernel's dense stripes), so where the byte pass barely prunes —
// vectors like SIFT's, at a loose bound — it only adds its own cost. Every
// (byteBypassCalls+1)th call, and every call that requantizes (the bound
// fell by half), tries the byte pass again.
const byteBypassCalls = 16

// fits reports whether the table is quantized for word length l at a step
// that serves bsf: bsf/Δ in (100, 200].
func (b *ByteTable) fits(l int, bsf float64) bool {
	return b.delta != 0 && b.l == l && bsf > 100*b.delta && bsf <= 200*b.delta
}

// quantize fills q from table at the step bsf selects and fixes the byte
// permutation of word length l.
func (b *ByteTable) quantize(table []float64, l int, bsf float64) {
	b.delta = byteStep(bsf)
	b.bypass = 0
	if b.l != l || b.q == nil {
		b.q = make([]uint8, l*Alphabet+byteGroup*l)
		b.q, b.pad = b.q[:l*Alphabet], b.q[l*Alphabet:]
		b.l = l
		b.perm = bytePerm(l)
	}
	quantizeTable(table[:l*Alphabet], 1/b.delta, b.q)
}

// byteStep is the power of two Δ with bsf/Δ in (100, 200], for a positive
// normal bsf within [byteBoundMin, byteBoundMax].
func byteStep(bsf float64) float64 {
	_, exp := math.Frexp(bsf) // bsf = f·2^exp, f in [0.5, 1): bsf/2^(exp-8) in [128, 256)
	d := math.Ldexp(1, exp-8)
	if bsf > 200*d {
		d *= 2
	}
	return d
}

// quantizeRef is the definition quantizeTable implements: ⌊t·scale⌋ capped
// at 255, with +Inf and NaN at 255 (a NaN entry makes the exact sum NaN,
// which no bound keeps, so dropping its series is sound too). scale is 1/Δ,
// a power of two, so t·scale is t/Δ exactly.
func quantizeRef(table []float64, scale float64, q []uint8) {
	for i, t := range table {
		v := t * scale
		switch {
		case !(v < 255):
			q[i] = 255
		case v >= 1:
			q[i] = uint8(v)
		default:
			q[i] = 0
		}
	}
}

// bytePerm returns the byte permutations that turn what the kernel loads
// into a 16-position piece laid out position-major.
//
// p[0] makes four consecutive series' piece a register whose byte 4k+s holds
// position k of series s. For l <= 48 the kernel loads A at the first
// series' piece and B ending at the fourth series' piece (B starts 3l-48
// bytes after A), so series s sits at A+0, A+l, B+48-l, B+48; for l >= 64
// it assembles the four pieces into the four 128-bit lanes first.
//
// At l = 16 eight series are 128 contiguous bytes, and p[1] and p[2] permute
// them straight into what the transpose's first stage (dword interleave)
// makes of two such registers: 128-bit lane c of p[1] holds positions 4c and
// 4c+1, of p[2] positions 4c+2 and 4c+3, each as four series of the first
// register followed by four of the second.
func bytePerm(l int) (p [3][64]byte) {
	off := [4]int{0, 16, 32, 48}
	if l <= 48 {
		off = [4]int{0, l, 64 + 48 - l, 64 + 48}
	}
	for k := 0; k < 16; k++ {
		for s := 0; s < 4; s++ {
			p[0][4*k+s] = byte(off[s] + k)
		}
	}
	for c := 0; c < 4; c++ {
		for w := 0; w < 4; w++ {
			for s := 0; s < 4; s++ {
				i := 64*(w&1) + 16*s + 4*c + w>>1 // register w&1, position 4c + w>>1
				p[1][16*c+4*w+s] = byte(i)
				p[2][16*c+4*w+s] = byte(i + 2)
			}
		}
	}
	return p
}
