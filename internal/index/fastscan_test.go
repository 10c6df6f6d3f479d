package index

import (
	"math"
	"testing"

	"repro/internal/sfa"
	"repro/internal/simd"
)

// The byte pass on the benchmark's three dataset shapes, at l = 16 and 32:
// for every query, at its k-th distance (the bound the drain ends at) and at
// twice it, every leaf's fast-scan survivor list and survivor bounds equal
// the staged float64 kernel's, with one fastScan serving all leaves as in a
// drain worker (cached table, requantization, bypass). The byte pass's keep
// share — the series it hands the exact chain — is logged; the count study
// behind the pass expects ≤ 1.1% on LenDB and SALD and ~43% on SIFT1b at
// l = 16, at the bounds of the whole drain.
func TestFastScanOnDatasetStandIns(t *testing.T) {
	const k = 10
	for _, name := range []string{"LenDB", "SALD", "SIFT1b"} {
		m, queries := shapeMatrix(t, name, 20000, 47)
		for _, l := range []int{16, 32} {
			sum := newSFASum(t, m, sfa.Options{WordLength: l, SampleRate: 0.1})
			tr, err := Build(m, sum, Options{LeafCapacity: 1024, Workers: 1, Queues: 1})
			if err != nil {
				t.Fatal(err)
			}
			leaves := treeLeaves(tr)
			s := tr.NewSerialSearcher()
			var fs fastScan
			var kept, total int
			for qi := 0; qi < queries.Len(); qi++ {
				res, err := s.Search(queries.Row(qi), k)
				if err != nil {
					t.Fatal(err)
				}
				for _, bound := range []float64{res[k-1].Dist, 2 * res[k-1].Dist} {
					for _, leaf := range leaves {
						n := len(leaf.ids)
						out, surv := make([]float64, n), make([]int32, n)
						wantOut, wantSurv := make([]float64, n), make([]int32, n)
						got := s.dt.minDistBlockEA(leaf.words, n, out, bound, surv, &fs)
						want := s.dt.minDistBlockEA(leaf.words, n, wantOut, bound, wantSurv, nil)
						if got != want {
							t.Fatalf("%s l=%d query %d bound %v: fast scan keeps %d series, the staged kernel %d", name, l, qi, bound, got, want)
						}
						for p, i := range wantSurv[:want] {
							if surv[p] != i || math.Float64bits(out[i]) != math.Float64bits(wantOut[i]) {
								t.Fatalf("%s l=%d query %d bound %v: survivor %d is %d (bound %v), want %d (%v)", name, l, qi, bound, p, surv[p], out[surv[p]], i, wantOut[i])
							}
						}
						// The share, from a byte pass that cannot be bypassed.
						for i := range out {
							out[i] = unwrittenLBD
						}
						fs.bt.Reset()
						s.dt.minDistBlockEA(leaf.words, n, out, bound, surv, &fs)
						for _, v := range out {
							if math.Float64bits(v) != math.Float64bits(unwrittenLBD) {
								kept++
							}
						}
						total += n
					}
				}
			}
			t.Logf("%s l=%d (%s): the byte pass keeps %.2f%% of %d series", name, l, simd.BlockImpl(), 100*float64(kept)/float64(total), total)
		}
	}
}

// unwrittenLBD marks the out entries the byte pass leaves alone: a NaN
// payload no table sum carries.
var unwrittenLBD = math.Float64frombits(0x7ff8_dead_beef_0001)

// treeLeaves lists the tree's non-empty leaves.
func treeLeaves(tr *Tree) []*node {
	var leaves []*node
	var collect func(n *node)
	collect = func(n *node) {
		if n.isLeaf() {
			if len(n.ids) > 0 {
				leaves = append(leaves, n)
			}
			return
		}
		collect(n.children[0])
		collect(n.children[1])
	}
	for _, rk := range tr.rootKeys {
		collect(tr.root[rk])
	}
	return leaves
}
