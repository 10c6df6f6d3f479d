//go:build amd64 && !noasm

package simd

// Hand-written CPUID feature detection (stdlib-only; internal/cpu is not
// importable and x/sys would be a new dependency). The assembly kernels
// need AVX2 and FMA3, and the OS must have enabled YMM state saving
// (OSXSAVE set and XCR0 reporting XMM+YMM), or executing VEX-256
// instructions faults.

// cpuid executes CPUID with EAX=leaf, ECX=sub (cpuid_amd64.s).
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0; only valid once CPUID reports OSXSAVE.
func xgetbv() (eax, edx uint32)

func detectAVX2FMA() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, c1, _ := cpuid(1, 0)
	const (
		fma     = 1 << 12
		osxsave = 1 << 27
		avx     = 1 << 28
	)
	if c1&fma == 0 || c1&osxsave == 0 || c1&avx == 0 {
		return false
	}
	xlo, _ := xgetbv()
	if xlo&0x6 != 0x6 { // XMM and YMM state enabled by the OS
		return false
	}
	_, b7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return b7&avx2 != 0
}

// detectAVX512 reports AVX512F support with the OS having enabled the
// opmask and ZMM state components (XCR0 bits 5..7 alongside XMM+YMM).
// The block kernels use only foundation instructions (ZMM arithmetic,
// qword gathers, K-masked loads/stores, KMOVW), so F alone suffices —
// no DQ/BW/VL requirement.
func detectAVX512() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, c1, _ := cpuid(1, 0)
	const osxsave = 1 << 27
	if c1&osxsave == 0 {
		return false
	}
	xlo, _ := xgetbv()
	if xlo&0xe6 != 0xe6 { // XMM, YMM, opmask, ZMM-hi256, hi16-ZMM state
		return false
	}
	_, b7, _, _ := cpuid(7, 0)
	const avx512f = 1 << 16
	return b7&avx512f != 0
}

// detectVBMI reports the byte instructions of the byte pass: AVX512BW
// (saturating byte adds, byte compares, 64-bit masks) and AVX512_VBMI (byte
// permutes). The caller has already checked AVX512F and the OS state.
func detectVBMI() bool {
	_, b7, c7, _ := cpuid(7, 0)
	const (
		avx512bw   = 1 << 30 // EBX
		avx512vbmi = 1 << 1  // ECX
	)
	return b7&avx512bw != 0 && c7&avx512vbmi != 0
}
