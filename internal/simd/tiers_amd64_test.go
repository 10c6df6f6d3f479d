//go:build amd64 && !noasm

package simd

import "testing"

// forEachBlockTier runs f once under every block-kernel dispatch tier this
// machine and environment allow — the configured one first, then each lower
// tier with the higher ones switched off — so one `go test` exercises the
// byte pass and the AVX-512, AVX2 and reference bodies. The dispatch variables are restored
// afterwards; tests using this must not run in parallel.
func forEachBlockTier(t *testing.T, f func(t *testing.T)) {
	avx2, avx512, vbmi := useAVX2, useAVX512, useVBMI
	defer func() { useAVX2, useAVX512, useVBMI = avx2, avx512, vbmi }()
	for {
		t.Run(BlockImpl(), f)
		switch {
		case useVBMI:
			useVBMI = false
		case useAVX512:
			useAVX512 = false
		case useAVX2:
			useAVX2 = false
		default:
			return
		}
	}
}
