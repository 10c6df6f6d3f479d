package simd

import (
	"math"
	"math/rand"
	"testing"
)

// projectCase fills a basis of l rows and m rows of length n, each slice
// starting off at its own offset into a larger backing array so the loads
// straddle every alignment, and plants special values: kind 1 puts ±Inf and
// NaN into the rows and the basis, kind 2 subnormals.
func projectCase(rng *rand.Rand, l, n, m, off, kind int) (basis, rows []float64) {
	basis = make([]float64, l*n+off)[off:]
	rows = make([]float64, m*n+2*off+1)[2*off+1:]
	for i := range basis {
		basis[i] = rng.NormFloat64()
	}
	for i := range rows {
		rows[i] = rng.NormFloat64() * 3
	}
	switch kind {
	case 1:
		special := []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0x7ff8dead00000000)}
		for k := 0; k < 3; k++ {
			rows[rng.Intn(len(rows))] = special[rng.Intn(4)]
		}
		basis[rng.Intn(len(basis))] = special[rng.Intn(4)]
	case 2:
		for i := range rows {
			if rng.Intn(3) == 0 {
				rows[i] = math.SmallestNonzeroFloat64 * float64(rng.Intn(1<<20)-1<<19)
			}
		}
		for i := range basis {
			if rng.Intn(4) == 0 {
				basis[i] = 0x1p-1060 * rng.NormFloat64()
			}
		}
	}
	return basis, rows
}

// checkProject runs Project on one case and holds every output to the Dot of
// its pair, bit for bit: to the dispatched Dot of the same tier including
// NaN payloads, and to DotPortable up to the payload of a NaN. Where two
// different NaNs meet in the reduction, the portable reference keeps
// whichever operand the Go compiler puts first; the assembly tiers keep
// reduce16's left one.
func checkProject(t *testing.T, basis []float64, l, n int, rows []float64) {
	t.Helper()
	m := len(rows) / n
	out := make([]float64, m*l+1)
	for i := range out {
		out[i] = math.NaN()
	}
	Project(basis, l, n, rows, out[:m*l])
	for r := 0; r < m; r++ {
		for j := 0; j < l; j++ {
			got := out[r*l+j]
			b, x := basis[j*n:(j+1)*n], rows[r*n:(r+1)*n]
			if want := Dot(b, x); !eqBits(got, want) {
				t.Fatalf("l=%d n=%d rows=%d: out[%d][%d] = %v (%#x), Dot %v (%#x)",
					l, n, m, r, j, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			if want := DotPortable(b, x); !eqBits(got, want) && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("l=%d n=%d rows=%d: out[%d][%d] = %v (%#x), portable Dot %v (%#x)",
					l, n, m, r, j, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
	if !math.IsNaN(out[m*l]) {
		t.Fatalf("l=%d n=%d rows=%d: Project wrote past out[:rows*l]", l, n, m)
	}
}

// TestProjectParityExhaustive holds Project to DotPortable in every tier:
// every n in 1..300 (below one block, and every n%16), every l in 1..40 (every
// l%4, so the tile's basis remainder runs) and 1..5 rows (so the odd last row
// runs), at every slice offset mod 8, with ±Inf, NaN and subnormal inputs.
func TestProjectParityExhaustive(t *testing.T) {
	forEachBlockTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(103))
		for n := 1; n <= 300; n++ {
			l, m := 1+n%40, 1+n%5
			basis, rows := projectCase(rng, l, n, m, n%8, n%3)
			checkProject(t, basis, l, n, rows)
		}
		for _, n := range []int{16, 33, 128} {
			for l := 1; l <= 40; l++ {
				for m := 1; m <= 5; m++ {
					basis, rows := projectCase(rng, l, n, m, (l+m)%8, (l*m)%3)
					checkProject(t, basis, l, n, rows)
				}
			}
		}
	})
}

// TestProjectContract: an empty block writes nothing, l = 0 is a no-op, and
// slices shorter than the contract panic instead of reading past them.
func TestProjectContract(t *testing.T) {
	basis := make([]float64, 4*16)
	Project(basis, 4, 16, nil, nil)
	Project(basis, 0, 16, make([]float64, 32), nil)
	for name, f := range map[string]func(){
		"rows not a multiple of n": func() { Project(basis, 4, 16, make([]float64, 17), make([]float64, 8)) },
		"short basis":              func() { Project(basis, 5, 16, make([]float64, 16), make([]float64, 5)) },
		"short out":                func() { Project(basis, 4, 16, make([]float64, 32), make([]float64, 7)) },
		"n = 0":                    func() { Project(basis, 4, 0, nil, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

func FuzzProjectParity(f *testing.F) {
	f.Add(int64(1), 16, 128, 2, 0)
	f.Add(int64(2), 7, 33, 3, 1)
	f.Add(int64(3), 32, 256, 5, 2)
	f.Fuzz(func(t *testing.T, seed int64, l, n, m, kind int) {
		if l < 1 || l > 64 || n < 1 || n > 512 || m < 1 || m > 8 || kind < 0 || kind > 2 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		basis, rows := projectCase(rng, l, n, m, int(seed&7), kind)
		checkProject(t, basis, l, n, rows)
	})
}
