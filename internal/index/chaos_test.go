//go:build faultinject

package index

import (
	"math/rand"
	"testing"

	"repro/internal/faultinject"
)

// Tree-level chaos: injected faults at the kernel site. (The collection-level
// sites are exercised by internal/core's chaos suite.)

func chaosTree(tb testing.TB) (*Tree, [][]float64) {
	tb.Helper()
	faultinject.Reset()
	rng := rand.New(rand.NewSource(841))
	data := mixedMatrix(rng, 500, 48)
	t, err := Build(data, newSAXSum(tb, 48, 16), Options{LeafCapacity: 32})
	if err != nil {
		tb.Fatal(err)
	}
	queries := make([][]float64, 6)
	for i := range queries {
		q := make([]float64, 48)
		for j := range q {
			q[j] = rng.NormFloat64()
		}
		queries[i] = q
	}
	return t, queries
}

// TestChaosKernelError: the kernel-dispatch site surfaces injected errors
// through Search's error return.
func TestChaosKernelError(t *testing.T) {
	tree, queries := chaosTree(t)
	defer faultinject.Reset()
	s := tree.NewSearcher()
	faultinject.Arm(faultinject.SiteKernel, faultinject.Trigger{Mode: faultinject.ModeError, OnCall: 1})
	if _, err := s.Search(queries[0], 5); !faultinject.IsInjected(err) {
		t.Fatalf("search err = %v, want injected", err)
	}
	faultinject.Reset()
	if _, err := s.Search(queries[0], 5); err != nil {
		t.Fatalf("search after injected error: %v", err)
	}
}
