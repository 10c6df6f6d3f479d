package simd

// Parity suite: the dispatched kernels must be BIT-IDENTICAL — equal
// float64 bit patterns, not merely close — to the portable references on
// every input. Under the default build on amd64 this pits the AVX2
// assembly against pure Go; under -tags noasm (or on other architectures)
// both sides are the reference and the suite pins the canonical semantics.
// CI runs it in both variants so neither path can rot.
//
// The corpus sweeps lengths 1..257 (every block-boundary straddle), all
// slice offsets 0..7 (unaligned loads), ±Inf and NaN elements, and
// early-abandon bounds from 0 through +Inf. The block kernels have their own
// suite in kernels_block_parity_test.go.

import (
	"math"
	"math/rand"
	"os"
	"testing"
	"testing/quick"
)

// eqBits reports bit-identity, treating any-NaN==any-NaN as equal only for
// identical bit patterns (the kernels are deterministic, so even NaN
// payloads must agree).
func eqBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

func TestImplReported(t *testing.T) {
	impl := Impl()
	if impl != "avx2" && impl != "portable" {
		t.Fatalf("Impl() = %q, want avx2 or portable", impl)
	}
	t.Logf("active kernel implementation: %s", impl)
}

// TestImplMatchesEnv pins the dispatch decision when WANT_SIMD is set: CI's
// amd64 parity job exports WANT_SIMD=avx2 so the asm-vs-portable comparison
// can never silently degrade to portable-vs-portable (e.g. a broken CPUID
// probe would otherwise keep every parity and smoke step green while
// shipping the slow path to all users).
func TestImplMatchesEnv(t *testing.T) {
	want := os.Getenv("WANT_SIMD")
	if want == "" {
		t.Skip("WANT_SIMD not set")
	}
	if got := Impl(); got != want {
		t.Fatalf("Impl() = %q, want %q (WANT_SIMD): kernel dispatch regressed", got, want)
	}
}

func TestSquaredEDEAParityExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	// Backing arrays with slack so every offset 0..7 can be tested.
	const maxN, slack = 257, 8
	rawA := make([]float64, maxN+slack)
	rawB := make([]float64, maxN+slack)
	for i := range rawA {
		rawA[i] = rng.NormFloat64()
		rawB[i] = rng.NormFloat64()
	}
	bounds := []float64{0, 0.5, 3, 50, 1e6, math.Inf(1)}
	for n := 1; n <= maxN; n++ {
		off := n % slack
		a := rawA[off : off+n]
		b := rawB[off : off+n]
		for _, bound := range bounds {
			got := SquaredEDEA(a, b, bound)
			want := SquaredEDEAPortable(a, b, bound)
			if !eqBits(got, want) {
				t.Fatalf("n=%d off=%d bound=%v: asm %v (%#x) != portable %v (%#x)",
					n, off, bound, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// squaredEDEAReadPortable is the portable reference of SquaredEDEARead.
func squaredEDEAReadPortable(a, b []float64, bound float64) (float64, int) {
	sum, i := edBlocks16Ref(a, b, bound)
	return edTail(a, b, bound, sum, i)
}

// SquaredEDEARead must return SquaredEDEA's bits and the portable
// reference's read length in every tier, and read == len(a) exactly when it
// did not abandon. The bounds make it abandon after each block in turn
// (bound = the distance over the blocks before it), never (+Inf, NaN) or at
// once (-Inf); the data carries ±Inf and NaN elements too.
func TestSquaredEDEAReadParityExhaustive(t *testing.T) {
	forEachBlockTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(106))
		const maxN = 257
		inf := math.Inf(1)
		for n := 1; n <= maxN; n++ {
			a := make([]float64, n)
			b := make([]float64, n)
			for i := range a {
				a[i] = rng.NormFloat64()
				b[i] = rng.NormFloat64()
			}
			full := SquaredEDEAPortable(a, b, inf)
			bounds := []float64{inf, math.NaN(), math.Inf(-1), 0}
			for blk := 1; blk*edBlock <= n; blk++ {
				before, _ := edBlocks16Ref(a[:(blk-1)*edBlock], b, inf)
				bounds = append(bounds, before)
			}
			// The second pass plants a non-finite element. A partial sum can
			// then equal the full one (both +Inf), so only the finite pass
			// pins "read == n iff the full distance came back".
			for _, finite := range []bool{true, false} {
				if !finite {
					a[rng.Intn(n)] = []float64{inf, -inf, math.NaN()}[n%3]
				}
				for _, bound := range bounds {
					sum, read := SquaredEDEARead(a, b, bound)
					wantSum, wantRead := squaredEDEAReadPortable(a, b, bound)
					if !eqBits(sum, SquaredEDEA(a, b, bound)) || !eqBits(sum, wantSum) || read != wantRead {
						t.Fatalf("n=%d finite=%v bound=%v: (%v, %d), SquaredEDEA %v, portable (%v, %d)",
							n, finite, bound, sum, read, SquaredEDEA(a, b, bound), wantSum, wantRead)
					}
					if complete := eqBits(sum, full); finite && (read == n) != complete {
						t.Fatalf("n=%d bound=%v: read %d of %d, full distance %v", n, bound, read, n, complete)
					}
					if read < n && (!(sum > bound) || read%edBlock != 0) {
						t.Fatalf("n=%d finite=%v bound=%v: abandoned at %d with sum %v", n, finite, bound, read, sum)
					}
				}
			}
		}
	})
}

// Prefetch is a hint: any row and line count, including an empty row and
// counts beyond the row, must leave the row unchanged and not fault.
func TestPrefetchContract(t *testing.T) {
	row := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	for _, lines := range []int{-1, 0, 1, 2, 100} {
		Prefetch(row, lines)
		Prefetch(row[:0], lines)
		Prefetch(nil, lines)
	}
	for i, v := range row {
		if v != float64(i+1) {
			t.Fatalf("row[%d] = %v after Prefetch", i, v)
		}
	}
}

func TestDotParityExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	const maxN, slack = 257, 8
	rawA := make([]float64, maxN+slack)
	rawB := make([]float64, maxN+slack)
	for i := range rawA {
		rawA[i] = rng.NormFloat64()
		rawB[i] = rng.NormFloat64()
	}
	for n := 1; n <= maxN; n++ {
		off := (n * 3) % slack
		a := rawA[off : off+n]
		b := rawB[off : off+n]
		got := Dot(a, b)
		want := DotPortable(a, b)
		if !eqBits(got, want) {
			t.Fatalf("n=%d off=%d: asm %v != portable %v", n, off, got, want)
		}
	}
}

// Property: for any data and bound, SquaredEDEA returns either the exact
// blocked distance (when <= bound) or a certificate > bound, and the
// sequential-vs-dispatched paths stay bit-identical.
func TestSquaredEDEAParityProperty(t *testing.T) {
	f := func(seed int64, boundRaw float64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64() * 1e3
			b[i] = rng.NormFloat64() * 1e3
		}
		bound := math.Abs(boundRaw)
		if math.IsNaN(bound) {
			bound = 1
		}
		return eqBits(SquaredEDEA(a, b, bound), SquaredEDEAPortable(a, b, bound))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// The dispatched ED kernel must satisfy the early-abandon contract against
// an order-independent oracle: a result <= bound equals the exact distance
// to tree-reassociation rounding; a result > bound implies the exact
// distance also exceeds bound (up to the same rounding slack).
func TestSquaredEDEAContract(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		a := make([]float64, n)
		b := make([]float64, n)
		var exact float64
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
			d := a[i] - b[i]
			exact += d * d
		}
		bound := rng.Float64() * exact * 2
		got := SquaredEDEA(a, b, bound)
		tol := 1e-9 * (exact + 1)
		if got <= bound {
			if math.Abs(got-exact) > tol {
				t.Fatalf("n=%d: under-bound result %v differs from exact %v", n, got, exact)
			}
		} else if exact <= bound-tol {
			t.Fatalf("n=%d: certificate %v > bound %v but exact %v <= bound", n, got, bound, exact)
		}
	}
}

// Native fuzz targets: the go fuzzer mutates raw byte/length material and
// the harness rebuilds structurally valid kernel inputs from it.

func FuzzSquaredEDEAParity(f *testing.F) {
	f.Add(int64(1), 17, 1.0)
	f.Add(int64(2), 256, math.Inf(1))
	f.Add(int64(3), 16, 0.0)
	f.Fuzz(func(t *testing.T, seed int64, n int, bound float64) {
		if n < 1 || n > 1024 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		if !eqBits(SquaredEDEA(a, b, bound), SquaredEDEAPortable(a, b, bound)) {
			t.Fatalf("parity violation: n=%d bound=%v", n, bound)
		}
		sum, read := SquaredEDEARead(a, b, bound)
		wantSum, wantRead := squaredEDEAReadPortable(a, b, bound)
		if !eqBits(sum, wantSum) || read != wantRead {
			t.Fatalf("read-length parity violation: n=%d bound=%v: (%v, %d), portable (%v, %d)", n, bound, sum, read, wantSum, wantRead)
		}
	})
}
