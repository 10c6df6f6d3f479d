package simd

// Parity suite for the BLOCK kernels, run under every dispatch tier the
// machine has (forEachBlockTier; CI additionally pins tiers through the
// environment and the noasm tag).
//
// The staged table-lookup kernel is held to its contract against a loop of
// per-series sequential calls (LookupAccumEASeq at bsf=+Inf): the survivor
// list is exactly the series whose full sum is <= bsf, ascending; a
// survivor's out[i] has the oracle's bits; every other out[i] exceeds bsf;
// the returned count is the list's length, with or without a list. On a
// table built from interval terms it keeps exactly the series the pure-Go
// interval-form reference (LBDGatherBlockEA) counts, with the reference's
// bits, and that reference adds the terms of the index's three-way-switch
// form.
//
// The corpus straddles every stripe boundary of both tiers (n around 4/8
// multiples for AVX2/AVX-512 stripes, l around 8 multiples for position
// groups), puts bounds inside the stage-1 partial sums as well as the full
// sums so that stripes die, stay dense and get queued, and injects +Inf
// table entries, NaN bounds and NaN query lanes.

import (
	"math"
	"math/rand"
	"os"
	"sort"
	"testing"
)

func TestBlockImplReported(t *testing.T) {
	impl := BlockImpl()
	if impl != "avx512" && impl != "avx2" && impl != "portable" {
		t.Fatalf("BlockImpl() = %q, want avx512, avx2 or portable", impl)
	}
	t.Logf("block kernel implementation: %s (per-series: %s)", impl, Impl())
}

// TestBlockImplMatchesEnv pins the block-kernel dispatch tier when
// WANT_SIMD_BLOCK is set, the same guard TestImplMatchesEnv provides for
// the per-series kernels. CI's AVX-512 lane sets WANT_SIMD_BLOCK=avx512
// only after probing the runner, and the SOFA_NOAVX512 lane sets
// WANT_SIMD_BLOCK=avx2 to prove the pin works.
func TestBlockImplMatchesEnv(t *testing.T) {
	want := os.Getenv("WANT_SIMD_BLOCK")
	if want == "" {
		t.Skip("WANT_SIMD_BLOCK not set")
	}
	if got := BlockImpl(); got != want {
		t.Fatalf("BlockImpl() = %q, want %q (WANT_SIMD_BLOCK): block dispatch regressed", got, want)
	}
}

// blockNs and blockLs straddle every stripe boundary: n crosses the AVX2
// stripe of 4 and the AVX-512 stripe of 8 (1,7,8,9 exercise a lone masked
// tail stripe; 63,64,65 exercise many full stripes plus each tail kind),
// l crosses the 8-position group boundary.
var blockNs = []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 64, 65}
var blockLs = []int{1, 7, 8, 9, 16, 17, 24, 33}

// lookupBlockCase builds an n×l SoA block plus a flat nonnegative table
// whose entries shrink after the first 8-position group, the way SFA's
// variance ordering makes them: stage-1 partial sums then sit close to the
// full sums, so one bound separates dropped lanes, stage-2 casualties and
// survivors. With n >= 2 the first word is symbol 0 and the last symbol
// 255 in every position, so each table row's first and last entries are
// looked up; +Inf entries are planted at looked-up positions.
func lookupBlockCase(rng *rand.Rand, n, l int) (words []byte, table []float64) {
	words = make([]byte, n*l)
	table = make([]float64, l*Alphabet)
	rng.Read(words)
	for i := range table {
		scale := 10.0
		if i/Alphabet >= lbdBlock {
			scale = 1
		}
		table[i] = rng.Float64() * scale
	}
	if n >= 2 {
		clear(words[:l])
		for i := range words[(n-1)*l:] {
			words[(n-1)*l+i] = Alphabet - 1
		}
	}
	if n >= 2 && l >= 2 {
		table[0*Alphabet+int(words[0])] = math.Inf(1)
		table[(l-1)*Alphabet+int(words[(n-1)*l+l-1])] = math.Inf(1)
	}
	return
}

// lookupBlockBounds returns the abandon bounds a case is run at: the
// issue's {0, tiny, mid, +Inf, NaN} with mid taken both inside the stage-1
// partial sums (a quarter and three quarters of the lanes dropped) and at
// the median full sum.
func lookupBlockBounds(words []byte, n, l int, table []float64, want []float64) []float64 {
	part := make([]float64, n)
	for i := range part {
		part[i] = LookupAccumEASeq(words[i*l:i*l+min(l, lbdBlock)], table, math.Inf(1))
	}
	sort.Float64s(part)
	full := append([]float64(nil), want...)
	sort.Float64s(full)
	return []float64{0, math.SmallestNonzeroFloat64, part[n/4], part[3*n/4], full[n/2], math.Inf(1), math.NaN()}
}

// checkLookupBlockContract runs one staged kernel on one problem and holds
// it to the contract in the file comment. want is the per-series oracle.
func checkLookupBlockContract(t testing.TB, name string, kernel func(words []byte, n int, table []float64, out []float64, bsf float64, surv []int32) int,
	words []byte, n, l int, table []float64, bsf float64, want []float64) int {
	t.Helper()
	out := make([]float64, n)
	surv := make([]int32, n)
	for i := range out {
		out[i] = math.NaN() // detect unwritten entries
		surv[i] = -1
	}
	k := kernel(words, n, table, out, bsf, surv)
	wantK := 0
	for i := 0; i < n; i++ {
		switch {
		case want[i] <= bsf:
			if wantK >= k || surv[wantK] != int32(i) {
				t.Fatalf("%s n=%d l=%d bsf=%v: survivor list %v (count %d) misses series %d at rank %d", name, n, l, bsf, surv[:max(k, 0)], k, i, wantK)
			}
			if !eqBits(out[i], want[i]) {
				t.Fatalf("%s n=%d l=%d bsf=%v survivor %d: %v (%#x) != seq loop %v (%#x)",
					name, n, l, bsf, i, out[i], math.Float64bits(out[i]), want[i], math.Float64bits(want[i]))
			}
			wantK++
		case math.IsNaN(bsf):
			if math.IsNaN(out[i]) {
				t.Fatalf("%s n=%d l=%d bsf=NaN: out[%d] not written", name, n, l, i)
			}
		case !(out[i] > bsf):
			t.Fatalf("%s n=%d l=%d bsf=%v: series %d is no survivor (full sum %v) but out = %v", name, n, l, bsf, i, want[i], out[i])
		}
	}
	if k != wantK {
		t.Fatalf("%s n=%d l=%d bsf=%v: returned %d survivors %v, want %d", name, n, l, bsf, k, surv[:k], wantK)
	}
	out2 := make([]float64, n)
	if k2 := kernel(words, n, table, out2, bsf, nil); k2 != k {
		t.Fatalf("%s n=%d l=%d bsf=%v: %d survivors without a list, %d with", name, n, l, bsf, k2, k)
	}
	for i := range out2 {
		if !eqBits(out2[i], out[i]) {
			t.Fatalf("%s n=%d l=%d bsf=%v: out[%d] depends on the survivor list", name, n, l, bsf, i)
		}
	}
	return k
}

// seqLoop is the oracle: every series through the sequential per-series
// kernel, never abandoned.
func seqLoop(words []byte, n, l int, table []float64) []float64 {
	want := make([]float64, n)
	for i := range want {
		want[i] = LookupAccumEASeq(words[i*l:(i+1)*l], table, math.Inf(1))
	}
	return want
}

func checkLookupBlockAllBounds(t testing.TB, words []byte, n, l int, table []float64) {
	t.Helper()
	want := seqLoop(words, n, l, table)
	for _, bsf := range lookupBlockBounds(words, n, l, table, want) {
		k := checkLookupBlockContract(t, "dispatched/"+BlockImpl(), LookupAccumBlockSurvivors, words, n, l, table, bsf, want)
		checkLookupBlockContract(t, "portable", LookupAccumBlockSurvivorsPortable, words, n, l, table, bsf, want)
		if k2 := LookupAccumBlockEA(words, n, table, Alphabet, make([]float64, n), bsf); k2 != k {
			t.Fatalf("n=%d l=%d bsf=%v: LookupAccumBlockEA counts %d, the staged kernel %d", n, l, bsf, k2, k)
		}
	}
}

func TestLookupAccumBlockSurvivorsContract(t *testing.T) {
	forEachBlockTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(201))
		ns := []int{1024}
		for n := 1; n <= 65; n++ {
			ns = append(ns, n)
		}
		for _, n := range ns {
			for _, l := range blockLs {
				words, table := lookupBlockCase(rng, n, l)
				checkLookupBlockAllBounds(t, words, n, l, table)
			}
		}
	})
}

// The table kernel and the interval-form reference are two formulations of
// one bound: on a table built from the reference's own terms both must keep
// the same number of series, on every tier (the benchmark harness asserts
// exactly this).
func TestLookupBlockCountParityWithGatherBlock(t *testing.T) {
	forEachBlockTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(203))
		for _, n := range []int{5, 64, 65, 1024} {
			for _, l := range []int{8, 16, 24, 17} {
				words, qr, lower, upper, weights := lbdBlockCase(rng, n, l)
				table := intervalTable(qr, lower, upper, weights, l)
				want := seqLoop(words, n, l, table)
				for _, bsf := range lookupBlockBounds(words, n, l, table, want) {
					k := LookupAccumBlockEA(words, n, table, Alphabet, make([]float64, n), bsf)
					g := LBDGatherBlockEA(words, n, qr, lower, upper, weights, Alphabet, make([]float64, n), bsf)
					if k != g {
						t.Fatalf("n=%d l=%d bsf=%v: lookup kernel keeps %d series, interval reference %d", n, l, bsf, k, g)
					}
				}
			}
		}
	})
}

// lbdBlockCase builds a random but structurally valid interval problem: n
// words of l symbols, a query representation, nonnegative weights and
// sorted breakpoints per position (lower[0] = -Inf, upper[Alphabet-1] =
// +Inf, shared inner bounds).
func lbdBlockCase(rng *rand.Rand, n, l int) (words []byte, qr, lower, upper, weights []float64) {
	const alpha = Alphabet
	words = make([]byte, n*l)
	rng.Read(words)
	qr = make([]float64, l)
	weights = make([]float64, l)
	lower = make([]float64, l*alpha)
	upper = make([]float64, l*alpha)
	bps := make([]float64, alpha-1)
	for j := 0; j < l; j++ {
		qr[j] = rng.NormFloat64() * 2
		weights[j] = rng.Float64() * 3
		for i := range bps {
			bps[i] = rng.NormFloat64()
		}
		sort.Float64s(bps)
		lower[j*alpha] = math.Inf(-1)
		upper[j*alpha+alpha-1] = math.Inf(1)
		copy(lower[j*alpha+1:(j+1)*alpha], bps)
		copy(upper[j*alpha:(j+1)*alpha-1], bps)
	}
	return
}

// intervalTable is the flat lookup table of an interval problem: entry
// (j, sym) is the interval reference's own term.
func intervalTable(qr, lower, upper, weights []float64, l int) []float64 {
	table := make([]float64, l*Alphabet)
	for i := range table {
		table[i] = lbdBlockTerm(qr[i/Alphabet], lower[i], upper[i], weights[i/Alphabet])
	}
	return table
}

// The interval-form reference must add, series by series, the terms of the
// three-way switch (zero inside the interval, and for a NaN query lane), and
// the dispatched table kernel must hand its survivors the reference's bits.
func TestLBDGatherBlockParityExhaustive(t *testing.T) {
	forEachBlockTier(t, testLBDGatherBlockParity)
}

func testLBDGatherBlockParity(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	inf := math.Inf(1)
	for _, n := range blockNs {
		for _, l := range blockLs {
			words, qr, lower, upper, weights := lbdBlockCase(rng, n, l)
			if l > 2 {
				qr[l/2] = math.NaN()
			}
			want := make([]float64, n)
			for i := range want {
				for j, sym := range words[i*l : (i+1)*l] {
					lo, hi, v := lower[j*Alphabet+int(sym)], upper[j*Alphabet+int(sym)], qr[j]
					var d float64
					switch {
					case v < lo:
						d = lo - v
					case v > hi:
						d = v - hi
					}
					want[i] += weights[j] * (d * d)
				}
			}
			table := intervalTable(qr, lower, upper, weights, l)
			got := make([]float64, n)
			out := make([]float64, n)
			surv := make([]int32, n)
			for _, bsf := range []float64{0, want[n/2], inf} {
				k := LBDGatherBlockEA(words, n, qr, lower, upper, weights, Alphabet, got, bsf)
				wantK := 0
				for i := 0; i < n; i++ {
					if !eqBits(got[i], want[i]) {
						t.Fatalf("n=%d l=%d series %d: %v (%#x) != switch form %v (%#x)",
							n, l, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
					}
					if want[i] <= bsf {
						wantK++
					}
				}
				if k != wantK {
					t.Fatalf("n=%d l=%d bsf=%v: survivors %d, want %d", n, l, bsf, k, wantK)
				}
				ks := LookupAccumBlockSurvivors(words, n, table, out, bsf, surv)
				if ks != k {
					t.Fatalf("n=%d l=%d bsf=%v: table kernel keeps %d series, interval reference %d", n, l, bsf, ks, k)
				}
				for _, i := range surv[:ks] {
					if !eqBits(out[i], want[i]) {
						t.Fatalf("n=%d l=%d bsf=%v survivor %d: table kernel %v != interval reference %v", n, l, bsf, i, out[i], want[i])
					}
				}
			}
		}
	}
}

// TestBlockKernelContractPanics pins the shape validation: silent
// out-of-bounds reads in asm would be memory corruption, so violations
// must panic in the Go wrapper before dispatch. The two entry points that
// still take an alphabet refuse any but Alphabet.
func TestBlockKernelContractPanics(t *testing.T) {
	table := make([]float64, 4*Alphabet)
	words := make([]byte, 8)
	out := make([]float64, 2)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("indivisible len(words)", func() {
		LookupAccumBlockEA(words[:7], 2, table, Alphabet, out, 0)
	})
	mustPanic("short out", func() {
		LookupAccumBlockEA(words, 2, table, Alphabet, out[:1], 0)
	})
	mustPanic("negative n", func() {
		LookupAccumBlockEA(words, -1, table, Alphabet, out, 0)
	})
	mustPanic("short table", func() {
		LookupAccumBlockEA(words, 2, table[:len(table)-1], Alphabet, out, 0)
	})
	mustPanic("short survivor list", func() {
		LookupAccumBlockSurvivors(words, 2, table, out, 0, make([]int32, 1))
	})
	mustPanic("lookup alphabet 64", func() {
		LookupAccumBlockEA(words, 2, table, 64, out, 0)
	})
	qr := make([]float64, 4)
	w := make([]float64, 4)
	lo := make([]float64, 4*Alphabet)
	hi := make([]float64, 4*Alphabet)
	mustPanic("short qr", func() {
		LBDGatherBlockEA(words, 2, qr[:3], lo, hi, w, Alphabet, out, 0)
	})
	mustPanic("short lower", func() {
		LBDGatherBlockEA(words, 2, qr, lo[:len(lo)-1], hi, w, Alphabet, out, 0)
	})
	mustPanic("gather alphabet 512", func() {
		LBDGatherBlockEA(words, 2, qr, lo, hi, w, 512, out, 0)
	})
	// n == 0 must be a no-op, not a panic.
	if k := LookupAccumBlockEA(nil, 0, table, Alphabet, nil, 0); k != 0 {
		t.Fatalf("n=0: survivors %d, want 0", k)
	}
}

// The seeds with n >= 2 look up symbols 0 and 255 in every position (see
// lookupBlockCase) on every tier.
func FuzzLookupAccumBlockSurvivors(f *testing.F) {
	f.Add(int64(1), 9, 16, 10.0)
	f.Add(int64(2), 64, 7, math.Inf(1))
	f.Add(int64(3), 1, 1, 0.0)
	f.Add(int64(4), 65, 24, 41.5)
	f.Add(int64(5), 1024, 16, math.NaN())
	f.Fuzz(func(t *testing.T, seed int64, n, l int, bsf float64) {
		if n < 0 || n > 1100 || l < 1 || l > 64 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		if n == 0 {
			if k := LookupAccumBlockSurvivors(nil, 0, make([]float64, l*Alphabet), nil, bsf, nil); k != 0 {
				t.Fatalf("n=0: %d survivors", k)
			}
			return
		}
		words, table := lookupBlockCase(rng, n, l)
		for i := range table {
			if rng.Intn(40) == 0 {
				table[i] = math.Inf(1)
			}
		}
		want := seqLoop(words, n, l, table)
		forEachBlockTier(t, func(t *testing.T) {
			checkLookupBlockContract(t, "dispatched/"+BlockImpl(), LookupAccumBlockSurvivors, words, n, l, table, bsf, want)
			checkLookupBlockContract(t, "portable", LookupAccumBlockSurvivorsPortable, words, n, l, table, bsf, want)
			checkLookupBlockAllBounds(t, words, n, l, table)
		})
	})
}

// BenchmarkBlockKernels compares the block entry points against the
// equivalent loop of per-series calls on a leaf-sized block (n=256, l=16 —
// the shapes the index refinement path actually runs).
func BenchmarkBlockKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	const n, l = 256, 16
	words, table := lookupBlockCase(rng, n, l)
	out := make([]float64, n)
	inf := math.Inf(1)
	perSeries := func(v float64) float64 { return v / n }

	// The bound in the name is where the abandon test sits: at +Inf every
	// lane runs both stages, at p50 of the stage-1 partial sums half the
	// lanes are dropped after stage 1 and the rest is queued or runs dense.
	part := make([]float64, n)
	for i := range part {
		part[i] = LookupAccumEASeq(words[i*l:i*l+lbdBlock], table, inf)
	}
	sort.Float64s(part)
	surv := make([]int32, n)
	for _, bc := range []struct {
		name string
		bsf  float64
	}{{"inf", inf}, {"p90", part[9*n/10]}, {"p50", part[n/2]}, {"p05", part[n/20]}} {
		bc := bc
		b.Run("lookup/block-"+bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				LookupAccumBlockSurvivors(words, n, table, out, bc.bsf, surv)
			}
			b.ReportMetric(perSeries(float64(b.Elapsed().Nanoseconds())/float64(b.N)), "ns/series")
		})
		b.Run("lookup/block-portable-"+bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				LookupAccumBlockSurvivorsPortable(words, n, table, out, bc.bsf, surv)
			}
			b.ReportMetric(perSeries(float64(b.Elapsed().Nanoseconds())/float64(b.N)), "ns/series")
		})
	}
	b.Run("lookup/per-series-loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for s := 0; s < n; s++ {
				out[s] = LookupAccumEASeq(words[s*l:(s+1)*l], table, inf)
			}
		}
		b.ReportMetric(perSeries(float64(b.Elapsed().Nanoseconds())/float64(b.N)), "ns/series")
	})
}
