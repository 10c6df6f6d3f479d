package simd

// Parity suite: the dispatched kernels must be BIT-IDENTICAL — equal
// float64 bit patterns, not merely close — to the portable references on
// every input. Under the default build on amd64 this pits the AVX2
// assembly against pure Go; under -tags noasm (or on other architectures)
// both sides are the reference and the suite pins the canonical semantics.
// CI runs it in both variants so neither path can rot.
//
// The corpus sweeps lengths 1..257 (every block-boundary straddle), all
// slice offsets 0..7 (unaligned loads), ±Inf table entries, NaN queries,
// and early-abandon bounds from 0 through +Inf.

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

// lbdCase builds a random but structurally valid LBD problem: sorted
// breakpoints per position (lower[0] = -Inf, upper[alpha-1] = +Inf, shared
// inner bounds), nonneg weights, symbols < alpha.
func lbdCase(rng *rand.Rand, l, alpha int) (word []byte, qr, lower, upper, weights []float64) {
	word = make([]byte, l)
	qr = make([]float64, l)
	weights = make([]float64, l)
	lower = make([]float64, l*alpha)
	upper = make([]float64, l*alpha)
	for j := 0; j < l; j++ {
		word[j] = byte(rng.Intn(alpha))
		qr[j] = rng.NormFloat64() * 2
		weights[j] = rng.Float64() * 3
		bps := make([]float64, alpha-1)
		for i := range bps {
			bps[i] = rng.NormFloat64()
		}
		for i := 1; i < len(bps); i++ { // insertion sort: alpha is small here
			for k := i; k > 0 && bps[k] < bps[k-1]; k-- {
				bps[k], bps[k-1] = bps[k-1], bps[k]
			}
		}
		for sym := 0; sym < alpha; sym++ {
			if sym == 0 {
				lower[j*alpha+sym] = math.Inf(-1)
			} else {
				lower[j*alpha+sym] = bps[sym-1]
			}
			if sym == alpha-1 {
				upper[j*alpha+sym] = math.Inf(1)
			} else {
				upper[j*alpha+sym] = bps[sym]
			}
		}
	}
	return
}

func TestLBDGatherParityExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	bounds := []float64{0, 0.1, 2, 100, math.Inf(1)}
	for _, alpha := range []int{2, 4, 16, 256} {
		for l := 1; l <= 40; l++ {
			word, qr, lower, upper, weights := lbdCase(rng, l, alpha)
			if l > 2 {
				qr[l/2] = math.NaN() // NaN query lanes must select zero in both paths
			}
			for _, bsf := range bounds {
				got := LBDGatherEA(word, qr, lower, upper, weights, alpha, bsf)
				want := LBDGatherEAPortable(word, qr, lower, upper, weights, alpha, bsf)
				if !eqBits(got, want) {
					t.Fatalf("alpha=%d l=%d bsf=%v: asm %v (%#x) != portable %v (%#x)",
						alpha, l, bsf, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
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

// Property: random LBD problems (including degenerate alpha=2) stay
// bit-identical at random bounds.
func TestLBDGatherParityProperty(t *testing.T) {
	f := func(seed int64, bsfRaw float64) bool {
		rng := rand.New(rand.NewSource(seed))
		alpha := []int{2, 4, 8, 32, 64, 128, 256}[rng.Intn(7)]
		l := 1 + rng.Intn(64)
		word, qr, lower, upper, weights := lbdCase(rng, l, alpha)
		bsf := math.Abs(bsfRaw)
		if math.IsNaN(bsf) {
			bsf = math.Inf(1)
		}
		return eqBits(
			LBDGatherEA(word, qr, lower, upper, weights, alpha, bsf),
			LBDGatherEAPortable(word, qr, lower, upper, weights, alpha, bsf))
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
	})
}

func FuzzLBDGatherParity(f *testing.F) {
	f.Add(int64(1), 16, 8, 10.0)
	f.Add(int64(2), 9, 2, 0.0)
	f.Add(int64(3), 33, 1, math.Inf(1))
	f.Fuzz(func(t *testing.T, seed int64, l, alphaBits int, bsf float64) {
		if l < 1 || l > 128 || alphaBits < 1 || alphaBits > 8 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		word, qr, lower, upper, weights := lbdCase(rng, l, 1<<alphaBits)
		got := LBDGatherEA(word, qr, lower, upper, weights, 1<<alphaBits, bsf)
		want := LBDGatherEAPortable(word, qr, lower, upper, weights, 1<<alphaBits, bsf)
		if !eqBits(got, want) {
			t.Fatalf("parity violation: l=%d alpha=%d bsf=%v", l, 1<<alphaBits, bsf)
		}
	})
}
