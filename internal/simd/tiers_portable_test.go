//go:build !amd64 || noasm

package simd

import "testing"

// forEachBlockTier runs f under the only tier a portable build has.
func forEachBlockTier(t *testing.T, f func(t *testing.T)) {
	t.Run(BlockImpl(), f)
}
