package simd

// Parity suite for the BLOCK kernels, run under every dispatch tier the
// machine has (forEachBlockTier; CI additionally pins tiers through the
// environment and the noasm tag).
//
// The staged table-lookup kernel is held to its contract against a loop of
// per-series sequential calls (LookupAccumEASeq at bsf=+Inf): the survivor
// list is exactly the series whose full sum is <= bsf, ascending; a
// survivor's out[i] has the oracle's bits; every other out[i] exceeds bsf;
// the returned count is the list's length, with or without a list, and
// equals what the never-abandoning gather kernel counts on the same
// problem. The gather kernel keeps the plain parity contract: every out[i]
// bit-identical to its portable reference.
//
// The corpus straddles every stripe boundary of both tiers (n around 4/8
// multiples for AVX2/AVX-512 stripes, l around 8 multiples for position
// groups), puts bounds inside the stage-1 partial sums as well as the full
// sums so that stripes die, stay dense and get queued, and injects +Inf
// table entries and NaN bounds and query lanes.

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
// survivors. +Inf entries are planted at looked-up positions.
func lookupBlockCase(rng *rand.Rand, n, l, alpha int) (words []byte, table []float64) {
	words = make([]byte, n*l)
	table = make([]float64, l*alpha)
	for i := range words {
		words[i] = byte(rng.Intn(alpha))
	}
	for i := range table {
		scale := 10.0
		if i/alpha >= lbdBlock {
			scale = 1
		}
		table[i] = rng.Float64() * scale
	}
	if n >= 2 && l >= 2 {
		table[0*alpha+int(words[0])] = math.Inf(1)
		table[(l-1)*alpha+int(words[(n-1)*l+l-1])] = math.Inf(1)
	}
	return
}

// lookupBlockBounds returns the abandon bounds a case is run at: the
// issue's {0, tiny, mid, +Inf, NaN} with mid taken both inside the stage-1
// partial sums (a quarter and three quarters of the lanes dropped) and at
// the median full sum.
func lookupBlockBounds(words []byte, n, l int, table []float64, alpha int, want []float64) []float64 {
	part := make([]float64, n)
	for i := range part {
		part[i] = LookupAccumEASeq(words[i*l:i*l+min(l, lbdBlock)], table, alpha, math.Inf(1))
	}
	sort.Float64s(part)
	full := append([]float64(nil), want...)
	sort.Float64s(full)
	return []float64{0, math.SmallestNonzeroFloat64, part[n/4], part[3*n/4], full[n/2], math.Inf(1), math.NaN()}
}

// checkLookupBlockContract runs one staged kernel on one problem and holds
// it to the contract in the file comment. want is the per-series oracle.
func checkLookupBlockContract(t testing.TB, name string, kernel func(words []byte, n int, table []float64, alphabet int, out []float64, bsf float64, surv []int32) int,
	words []byte, n, l int, table []float64, alpha int, bsf float64, want []float64) int {
	t.Helper()
	out := make([]float64, n)
	surv := make([]int32, n)
	for i := range out {
		out[i] = math.NaN() // detect unwritten entries
		surv[i] = -1
	}
	k := kernel(words, n, table, alpha, out, bsf, surv)
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
	if k2 := kernel(words, n, table, alpha, out2, bsf, nil); k2 != k {
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
func seqLoop(words []byte, n, l int, table []float64, alpha int) []float64 {
	want := make([]float64, n)
	for i := range want {
		want[i] = LookupAccumEASeq(words[i*l:(i+1)*l], table, alpha, math.Inf(1))
	}
	return want
}

func checkLookupBlockAllBounds(t testing.TB, words []byte, n, l int, table []float64, alpha int) {
	t.Helper()
	want := seqLoop(words, n, l, table, alpha)
	for _, bsf := range lookupBlockBounds(words, n, l, table, alpha, want) {
		k := checkLookupBlockContract(t, "dispatched/"+BlockImpl(), LookupAccumBlockSurvivors, words, n, l, table, alpha, bsf, want)
		checkLookupBlockContract(t, "portable", LookupAccumBlockSurvivorsPortable, words, n, l, table, alpha, bsf, want)
		if k2 := LookupAccumBlockEA(words, n, table, alpha, make([]float64, n), bsf); k2 != k {
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
		for _, alpha := range []int{2, 256} {
			for _, n := range ns {
				for _, l := range blockLs {
					words, table := lookupBlockCase(rng, n, l, alpha)
					checkLookupBlockAllBounds(t, words, n, l, table, alpha)
				}
			}
		}
	})
}

// The table kernel and the gather kernel are two formulations of one bound:
// on a table built from the gather kernel's own terms both must keep the
// same number of series (the benchmark harness asserts exactly this).
func TestLookupBlockCountParityWithGatherBlock(t *testing.T) {
	forEachBlockTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(203))
		for _, n := range []int{5, 64, 65, 1024} {
			for _, l := range []int{8, 16, 24, 17} {
				const alpha = 256
				words, qr, lower, upper, weights := lbdBlockCase(rng, n, l, alpha)
				table := make([]float64, l*alpha)
				for j := 0; j < l; j++ {
					for sym := 0; sym < alpha; sym++ {
						table[j*alpha+sym] = lbdBlockTerm(qr[j], lower[j*alpha+sym], upper[j*alpha+sym], weights[j])
					}
				}
				want := seqLoop(words, n, l, table, alpha)
				for _, bsf := range lookupBlockBounds(words, n, l, table, alpha, want) {
					k := LookupAccumBlockEA(words, n, table, alpha, make([]float64, n), bsf)
					g := LBDGatherBlockEA(words, n, qr, lower, upper, weights, alpha, make([]float64, n), bsf)
					if k != g {
						t.Fatalf("n=%d l=%d bsf=%v: lookup kernel keeps %d series, gather kernel %d", n, l, bsf, k, g)
					}
				}
			}
		}
	})
}

// lbdBlockCase reuses lbdCase's structurally valid interval problem and
// adds n-1 more words over the same breakpoints.
func lbdBlockCase(rng *rand.Rand, n, l, alpha int) (words []byte, qr, lower, upper, weights []float64) {
	word, qr, lower, upper, weights := lbdCase(rng, l, alpha)
	words = make([]byte, n*l)
	copy(words, word)
	for i := l; i < n*l; i++ {
		words[i] = byte(rng.Intn(alpha))
	}
	return
}

func TestLBDGatherBlockParityExhaustive(t *testing.T) {
	forEachBlockTier(t, testLBDGatherBlockParity)
}

func testLBDGatherBlockParity(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	inf := math.Inf(1)
	for _, alpha := range []int{2, 4, 256} {
		for _, n := range blockNs {
			for _, l := range blockLs {
				words, qr, lower, upper, weights := lbdBlockCase(rng, n, l, alpha)
				if l > 2 {
					qr[l/2] = math.NaN() // NaN query lanes must select zero in every lane
				}
				want := make([]float64, n)
				wantKInf := LBDGatherBlockEAPortable(words, n, qr, lower, upper, weights, alpha, want, inf)
				if wantKInf != n {
					t.Fatalf("alpha=%d n=%d l=%d: portable survivors at +Inf = %d, want n=%d", alpha, n, l, wantKInf, n)
				}
				got := make([]float64, n)
				for _, bsf := range []float64{0, want[n/2], inf} {
					k := LBDGatherBlockEA(words, n, qr, lower, upper, weights, alpha, got, bsf)
					wantK := 0
					for i := 0; i < n; i++ {
						if !eqBits(got[i], want[i]) {
							t.Fatalf("alpha=%d n=%d l=%d series %d: dispatched %v (%#x) != portable %v (%#x)",
								alpha, n, l, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
						}
						if want[i] <= bsf {
							wantK++
						}
					}
					if k != wantK {
						t.Fatalf("alpha=%d n=%d l=%d bsf=%v: survivors %d, want %d", alpha, n, l, bsf, k, wantK)
					}
				}
				// Cross-check against the per-series gather kernel at +Inf.
				// That kernel reduces positions through a lane tree, so only
				// approximate agreement is possible (the block kernels'
				// canonical order is the sequential chain); a real logic bug
				// would diverge by far more than reassociation slack.
				for i := 0; i < n; i++ {
					seq := LBDGatherEAPortable(words[i*l:(i+1)*l], qr, lower, upper, weights, alpha, inf)
					if diff := math.Abs(want[i] - seq); diff > 1e-9*(math.Abs(seq)+1) {
						t.Fatalf("alpha=%d n=%d l=%d series %d: block %v vs per-series gather %v (diff %v)", alpha, n, l, i, want[i], seq, diff)
					}
				}
			}
		}
	}
}

// TestBlockKernelContractPanics pins the shape validation: silent
// out-of-bounds reads in asm would be memory corruption, so violations
// must panic in the Go wrapper before dispatch.
func TestBlockKernelContractPanics(t *testing.T) {
	table := make([]float64, 4*8)
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
		LookupAccumBlockEA(words[:7], 2, table, 8, out, 0)
	})
	mustPanic("short out", func() {
		LookupAccumBlockEA(words, 2, table, 8, out[:1], 0)
	})
	mustPanic("negative n", func() {
		LookupAccumBlockEA(words, -1, table, 8, out, 0)
	})
	mustPanic("short table", func() {
		LookupAccumBlockEA(words, 2, table[:31], 8, out, 0)
	})
	mustPanic("short survivor list", func() {
		LookupAccumBlockSurvivors(words, 2, table, 8, out, 0, make([]int32, 1))
	})
	mustPanic("symbol out of range", func() {
		bad := []byte{0, 9, 0, 0, 0, 0, 0, 0}
		LookupAccumBlockEA(bad, 2, table, 8, out, 0)
	})
	qr := make([]float64, 4)
	w := make([]float64, 4)
	lo := make([]float64, 4*8)
	hi := make([]float64, 4*8)
	mustPanic("short qr", func() {
		LBDGatherBlockEA(words, 2, qr[:3], lo, hi, w, 8, out, 0)
	})
	mustPanic("short lower", func() {
		LBDGatherBlockEA(words, 2, qr, lo[:31], hi, w, 8, out, 0)
	})
	// n == 0 must be a no-op, not a panic.
	if k := LookupAccumBlockEA(nil, 0, table, 8, nil, 0); k != 0 {
		t.Fatalf("n=0: survivors %d, want 0", k)
	}
}

func FuzzLookupAccumBlockSurvivors(f *testing.F) {
	f.Add(int64(1), 9, 16, 8, 10.0)
	f.Add(int64(2), 64, 7, 3, math.Inf(1))
	f.Add(int64(3), 1, 1, 1, 0.0)
	f.Add(int64(4), 65, 24, 8, 41.5)
	f.Add(int64(5), 1024, 16, 8, math.NaN())
	f.Fuzz(func(t *testing.T, seed int64, n, l, alphaBits int, bsf float64) {
		if n < 0 || n > 1100 || l < 1 || l > 64 || alphaBits < 1 || alphaBits > 8 {
			return
		}
		alpha := 1 << alphaBits
		rng := rand.New(rand.NewSource(seed))
		if n == 0 {
			if k := LookupAccumBlockSurvivors(nil, 0, make([]float64, l*alpha), alpha, nil, bsf, nil); k != 0 {
				t.Fatalf("n=0: %d survivors", k)
			}
			return
		}
		words, table := lookupBlockCase(rng, n, l, alpha)
		for i := range table {
			if rng.Intn(40) == 0 {
				table[i] = math.Inf(1)
			}
		}
		want := seqLoop(words, n, l, table, alpha)
		forEachBlockTier(t, func(t *testing.T) {
			checkLookupBlockContract(t, "dispatched/"+BlockImpl(), LookupAccumBlockSurvivors, words, n, l, table, alpha, bsf, want)
			checkLookupBlockContract(t, "portable", LookupAccumBlockSurvivorsPortable, words, n, l, table, alpha, bsf, want)
			checkLookupBlockAllBounds(t, words, n, l, table, alpha)
		})
	})
}

func FuzzLBDGatherBlockParity(f *testing.F) {
	f.Add(int64(1), 9, 16, 8, 10.0)
	f.Add(int64(2), 65, 9, 2, 0.0)
	f.Add(int64(3), 8, 33, 1, math.Inf(1))
	f.Fuzz(func(t *testing.T, seed int64, n, l, alphaBits int, bsf float64) {
		if n < 1 || n > 200 || l < 1 || l > 64 || alphaBits < 1 || alphaBits > 8 {
			return
		}
		alpha := 1 << alphaBits
		rng := rand.New(rand.NewSource(seed))
		words, qr, lower, upper, weights := lbdBlockCase(rng, n, l, alpha)
		if l > 1 && seed%3 == 0 {
			qr[rng.Intn(l)] = math.NaN()
		}
		got := make([]float64, n)
		want := make([]float64, n)
		k := LBDGatherBlockEA(words, n, qr, lower, upper, weights, alpha, got, bsf)
		kWant := LBDGatherBlockEAPortable(words, n, qr, lower, upper, weights, alpha, want, bsf)
		if k != kWant {
			t.Fatalf("survivor mismatch: n=%d l=%d alpha=%d bsf=%v: %d != %d", n, l, alpha, bsf, k, kWant)
		}
		for i := range got {
			if !eqBits(got[i], want[i]) {
				t.Fatalf("parity violation: n=%d l=%d alpha=%d series %d", n, l, alpha, i)
			}
		}
	})
}

// BenchmarkBlockKernels compares the block entry points against the
// equivalent loop of per-series calls on a leaf-sized block (n=256, l=16,
// alpha=256 — the shapes the index refinement path actually runs).
func BenchmarkBlockKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	const n, l, alpha = 256, 16, 256
	words, table := lookupBlockCase(rng, n, l, alpha)
	_, qr, lower, upper, weights := lbdBlockCase(rng, 1, l, alpha)
	out := make([]float64, n)
	inf := math.Inf(1)
	perSeries := func(v float64) float64 { return v / n }

	// The bound in the name is where the abandon test sits: at +Inf every
	// lane runs both stages, at p50 of the stage-1 partial sums half the
	// lanes are dropped after stage 1 and the rest is queued or runs dense.
	part := make([]float64, n)
	for i := range part {
		part[i] = LookupAccumEASeq(words[i*l:i*l+lbdBlock], table, alpha, inf)
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
				LookupAccumBlockSurvivors(words, n, table, alpha, out, bc.bsf, surv)
			}
			b.ReportMetric(perSeries(float64(b.Elapsed().Nanoseconds())/float64(b.N)), "ns/series")
		})
		b.Run("lookup/block-portable-"+bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				LookupAccumBlockSurvivorsPortable(words, n, table, alpha, out, bc.bsf, surv)
			}
			b.ReportMetric(perSeries(float64(b.Elapsed().Nanoseconds())/float64(b.N)), "ns/series")
		})
	}
	b.Run("lookup/per-series-loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for s := 0; s < n; s++ {
				out[s] = LookupAccumEASeq(words[s*l:(s+1)*l], table, alpha, inf)
			}
		}
		b.ReportMetric(perSeries(float64(b.Elapsed().Nanoseconds())/float64(b.N)), "ns/series")
	})
	b.Run("gather/block", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			LBDGatherBlockEA(words, n, qr, lower, upper, weights, alpha, out, inf)
		}
		b.ReportMetric(perSeries(float64(b.Elapsed().Nanoseconds())/float64(b.N)), "ns/series")
	})
	b.Run("gather/block-portable", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			LBDGatherBlockEAPortable(words, n, qr, lower, upper, weights, alpha, out, inf)
		}
		b.ReportMetric(perSeries(float64(b.Elapsed().Nanoseconds())/float64(b.N)), "ns/series")
	})
	b.Run("gather/per-series-loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for s := 0; s < n; s++ {
				out[s] = LBDGatherEA(words[s*l:(s+1)*l], qr, lower, upper, weights, alpha, inf)
			}
		}
		b.ReportMetric(perSeries(float64(b.Elapsed().Nanoseconds())/float64(b.N)), "ns/series")
	})
}
