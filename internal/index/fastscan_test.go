package index

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/distance"
	"repro/internal/sfa"
	"repro/internal/simd"
)

// forEachStandIn runs f on the benchmark's three dataset shapes (LenDB, SALD
// and SIFT1b stand-ins of 20k series) at l = 16 and 32: a tree in
// 1024-series leaves, its non-empty leaves, a serial searcher over it and
// the stand-in's queries.
func forEachStandIn(tb testing.TB, f func(name string, l int, s *Searcher, leaves []*node, queries *distance.Matrix)) {
	for _, name := range []string{"LenDB", "SALD", "SIFT1b"} {
		m, queries := shapeMatrix(tb, name, 20000, 47)
		for _, l := range []int{16, 32} {
			sum := newSFASum(tb, m, sfa.Options{WordLength: l, SampleRate: 0.1})
			tr, err := Build(m, sum, Options{LeafCapacity: 1024, Workers: 1})
			if err != nil {
				tb.Fatal(err)
			}
			f(name, l, tr.NewSerialSearcher(), treeLeaves(tr), queries)
		}
	}
}

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
	forEachStandIn(t, func(name string, l int, s *Searcher, leaves []*node, queries *distance.Matrix) {
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
					fs.bt.Reset()
					kept += byteKept(leaf, s.dt.flat, &fs.bt, bound, out, surv)
					total += n
				}
			}
		}
		t.Logf("%s l=%d (%s): the byte pass keeps %.2f%% of %d series", name, l, simd.BlockImpl(), 100*float64(kept)/float64(total), total)
	})
}

// BenchmarkFastScanStandIns times the leaf LBD on the blocks and bounds a
// search meets, where BenchmarkBlockKernels times it on a uniform random
// table: the stand-ins of TestFastScanOnDatasetStandIns, every leaf bounded
// at each query's exact 10-NN distance. fastscan is the drain's entry
// (simd.LookupAccumBlockFastScan: the byte pass, then the exact chain on
// what it keeps; one ByteTable per query, bypass included), survivors the
// staged float64 kernel alone (simd.LookupAccumBlockSurvivors). Each
// reports ns/series and kept: the byte pass's keep share (from a pass that
// cannot be bypassed; 1 on a tier without the byte pass) or the exact
// survivor share.
func BenchmarkFastScanStandIns(b *testing.B) {
	const k = 10
	forEachStandIn(b, func(name string, l int, s *Searcher, leaves []*node, queries *distance.Matrix) {
		tables := make([][]float64, queries.Len())
		bounds := make([]float64, queries.Len())
		for qi := range tables {
			res, err := s.Search(queries.Row(qi), k)
			if err != nil {
				b.Fatal(err)
			}
			tables[qi], bounds[qi] = slices.Clone(s.dt.flat), res[k-1].Dist
		}
		var maxN, series int
		for _, leaf := range leaves {
			maxN = max(maxN, len(leaf.ids))
			series += len(leaf.ids)
		}
		series *= len(tables)
		out, surv := make([]float64, maxN), make([]int32, maxN)
		var bt simd.ByteTable
		kept := 0
		for qi, table := range tables {
			for _, leaf := range leaves {
				bt.Reset()
				kept += byteKept(leaf, table, &bt, bounds[qi], out, surv)
			}
		}
		report := func(b *testing.B, kept int) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(series), "ns/series")
			b.ReportMetric(float64(kept)/float64(series), "kept")
		}
		b.Run(fmt.Sprintf("%s/l=%d/fastscan-%s", name, l, simd.BlockImpl()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for qi, table := range tables {
					bt.Reset() // a new query's table, as a drain worker meets it
					for _, leaf := range leaves {
						simd.LookupAccumBlockFastScan(leaf.words, len(leaf.ids), table, &bt, out, bounds[qi], surv)
					}
				}
			}
			report(b, kept)
		})
		b.Run(fmt.Sprintf("%s/l=%d/survivors", name, l), func(b *testing.B) {
			var survivors int
			for i := 0; i < b.N; i++ {
				survivors = 0
				for qi, table := range tables {
					for _, leaf := range leaves {
						survivors += simd.LookupAccumBlockSurvivors(leaf.words, len(leaf.ids), table, out, bounds[qi], surv)
					}
				}
			}
			report(b, survivors)
		})
	})
}

// byteKept counts the series of leaf that the fast-scan entry hands the
// exact chain at bound: the out entries it writes (the byte pass leaves a
// dropped series' entry alone).
func byteKept(leaf *node, table []float64, bt *simd.ByteTable, bound float64, out []float64, surv []int32) int {
	n := len(leaf.ids)
	for i := range out[:n] {
		out[i] = unwrittenLBD
	}
	simd.LookupAccumBlockFastScan(leaf.words, n, table, bt, out, bound, surv)
	kept := 0
	for _, v := range out[:n] {
		if math.Float64bits(v) != math.Float64bits(unwrittenLBD) {
			kept++
		}
	}
	return kept
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
