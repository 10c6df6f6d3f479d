package simd

// Soundness of the byte pass (LookupAccumBlockFastScan), on every tier: the
// survivor list and every survivor's out[i] bits are those of the exact
// per-series chain, and every series the byte pass drops (its out[i] left
// unwritten) is one the exact chain drops too. The cases aim at the
// quantization's edges: entries at k·Δ and one ulp below, for the Δ of bounds
// at every power-of-two boundary of the (100Δ, 200Δ] range, sums that
// saturate past 255, and the bounds that must skip the byte pass.

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// unwritten is the out sentinel: a NaN payload no sum can produce (sums of
// table entries carry the table's NaNs, and the cases plant the default one).
var unwritten = math.Float64frombits(0x7ff8_dead_beef_0001)

func isUnwritten(v float64) bool { return math.Float64bits(v) == math.Float64bits(unwritten) }

// checkFastScan runs the fast-scan entry on one problem and holds it to its
// contract; it returns how many series the byte pass kept (written out
// entries).
func checkFastScan(t testing.TB, bt *ByteTable, words []byte, n, l int, table []float64, bsf float64, want []float64) (kept int) {
	t.Helper()
	out := make([]float64, n)
	surv := make([]int32, n)
	for i := range out {
		out[i] = unwritten
		surv[i] = -1
	}
	k := LookupAccumBlockFastScan(words, n, table, bt, out, bsf, surv)
	wantK := 0
	for i := 0; i < n; i++ {
		if !isUnwritten(out[i]) {
			kept++
		} else if want[i] <= bsf {
			t.Fatalf("%s n=%d l=%d bsf=%v: the byte pass dropped series %d, whose exact bound %v survives",
				BlockImpl(), n, l, bsf, i, want[i])
		}
		if want[i] <= bsf {
			if wantK >= k || surv[wantK] != int32(i) {
				t.Fatalf("%s n=%d l=%d bsf=%v: survivor list %v (count %d) misses series %d (exact %v) at rank %d",
					BlockImpl(), n, l, bsf, surv[:max(k, 0)], k, i, want[i], wantK)
			}
			if !eqBits(out[i], want[i]) {
				t.Fatalf("%s n=%d l=%d bsf=%v survivor %d: %v (%#x) != seq loop %v (%#x)",
					BlockImpl(), n, l, bsf, i, out[i], math.Float64bits(out[i]), want[i], math.Float64bits(want[i]))
			}
			wantK++
		}
	}
	if k != wantK {
		t.Fatalf("%s n=%d l=%d bsf=%v: returned %d survivors %v, want %d", BlockImpl(), n, l, bsf, k, surv[:k], wantK)
	}
	return kept
}

// byteCaseBounds are the bounds a fast-scan case runs at: the ones that
// must skip the byte pass, and for every power of two Δ near the sums, the
// edges of the range (100Δ, 200Δ] that Δ serves and their neighbours.
func byteCaseBounds(want []float64) []float64 {
	bounds := []float64{math.Inf(1), 0, math.NaN(), math.SmallestNonzeroFloat64, 0x1p-1030, -1}
	lo, hi := math.Inf(1), 0.0
	for _, v := range want {
		if v < lo {
			lo = v
		}
		if v > hi && !math.IsInf(v, 1) {
			hi = v
		}
	}
	if lo <= 0 {
		lo = 1e-3
	}
	for _, e := range []int{math.Ilogb(lo) - 8, math.Ilogb(lo) - 7, math.Ilogb(hi) - 8, math.Ilogb(hi) - 7, math.Ilogb(hi) - 6} {
		d := math.Ldexp(1, e)
		for _, b := range []float64{100 * d, 200 * d, 150 * d} {
			bounds = append(bounds, b, math.Nextafter(b, 0), math.Nextafter(b, math.Inf(1)))
		}
	}
	sorted := append([]float64(nil), want...)
	for _, q := range []int{0, len(sorted) / 100, len(sorted) / 2, len(sorted) - 1} {
		v := sortedAt(sorted, q)
		bounds = append(bounds, v, math.Nextafter(v, 0))
	}
	return bounds
}

func sortedAt(v []float64, q int) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[q]
}

// byteAdversarialTable fills a table whose entries sit on the grid of the
// step Δ = 2^e, at k·Δ and one ulp below it, for the Δ of neighbouring
// steps too, with a few entries large enough to saturate a byte sum.
func byteAdversarialTable(rng *rand.Rand, l, e int) []float64 {
	table := make([]float64, l*Alphabet)
	for i := range table {
		d := math.Ldexp(1, e+rng.Intn(3)-1)
		v := float64(rng.Intn(int(200/float64(l))+2)) * d
		switch rng.Intn(6) {
		case 0:
			v = math.Nextafter(v, 0)
		case 1:
			v = math.Nextafter(v, math.Inf(1))
		case 2:
			v = float64(rng.Intn(300)) * d // saturates once a few add up
		}
		table[i] = v
	}
	return table
}

var byteLs = []int{16, 32, 48, 64}
var byteNs = []int{1, 63, 64, 65, 1024}

func TestLookupAccumBlockFastScanContract(t *testing.T) {
	forEachBlockTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(461))
		var bt ByteTable
		for _, l := range byteLs {
			for _, n := range byteNs {
				for c := 0; c < 4; c++ {
					words := make([]byte, n*l)
					rng.Read(words)
					var table []float64
					if c < 2 {
						_, table = lookupBlockCase(rng, n, l)
					} else {
						table = byteAdversarialTable(rng, l, rng.Intn(40)-20)
					}
					if c == 3 {
						table[rng.Intn(len(table))] = math.NaN()
						table[rng.Intn(len(table))] = math.Inf(1)
					}
					want := seqLoop(words, n, l, table)
					for _, bsf := range byteCaseBounds(want) {
						bt.Reset() // the byte pass, never its bypass
						kept := checkFastScan(t, &bt, words, n, l, table, bsf, want)
						// These bounds take the staged kernel, which writes every out[i].
						if !(bsf >= byteBoundMin && bsf <= byteBoundMax) && kept != n {
							t.Fatalf("%s n=%d l=%d bsf=%v: the byte pass ran (%d of %d written)", BlockImpl(), n, l, bsf, kept, n)
						}
					}
				}
			}
		}
	})
}

// The quantizer is its definition on every entry the tables hold: zeros,
// entries on the grid of Δ and one ulp either side, +Inf, NaN, and values
// past 255Δ and past 2³²Δ.
func TestQuantizeTableParity(t *testing.T) {
	forEachBlockTier(t, testQuantizeTable)
}

func testQuantizeTable(t *testing.T) {
	rng := rand.New(rand.NewSource(462))
	for _, e := range []int{-900, -40, -3, 0, 5, 700} {
		d := math.Ldexp(1, e)
		table := make([]float64, 16*Alphabet)
		for i := range table {
			v := float64(rng.Intn(300)) * d
			switch rng.Intn(8) {
			case 0:
				v = math.Nextafter(v, 0)
			case 1:
				v = math.Nextafter(v, math.Inf(1))
			case 2:
				v = math.Inf(1)
			case 3:
				v = math.NaN()
			case 4:
				v = rng.Float64() * 0x1p40 * d
			case 5:
				v = 0
			}
			table[i] = v
		}
		got, want := make([]uint8, len(table)), make([]uint8, len(table))
		quantizeTable(table, 1/d, got)
		quantizeRef(table, 1/d, want)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s Δ=2^%d: entry %d = %v quantizes to %d, want %d", BlockImpl(), e, i, table[i], got[i], want[i])
			}
		}
	}
}

// byteStep puts every bound in (100Δ, 200Δ], Δ a power of two, at the
// edges of that range too.
func TestByteStep(t *testing.T) {
	for _, e := range []int{-890, -1, 0, 1, 52, 890} {
		for _, f := range []float64{100, 128, 150, 199.99, 200, 255.9} {
			b := math.Ldexp(f, e)
			for _, bsf := range []float64{b, math.Nextafter(b, 0), math.Nextafter(b, math.Inf(1))} {
				d := byteStep(bsf)
				if fr, _ := math.Frexp(d); fr != 0.5 || !(bsf > 100*d && bsf <= 200*d) {
					t.Fatalf("byteStep(%v) = %v: bound/Δ = %v", bsf, d, bsf/d)
				}
			}
		}
	}
}

// A ByteTable is requantized when its distance table changes (Reset) or
// the bound leaves (100Δ, 200Δ], and not otherwise; a block the byte pass
// barely prunes hands the next byteBypassCalls calls to the staged kernel,
// and a requantization ends that. Every call keeps its contract.
func TestByteTableLifecycleContract(t *testing.T) {
	if !useVBMI {
		t.Skip("no byte pass on " + BlockImpl())
	}
	rng := rand.New(rand.NewSource(463))
	const n, l = 256, 16
	words, table := lookupBlockCase(rng, n, l)
	want := seqLoop(words, n, l, table)
	low, high := sortedAt(want, 2), 0.0
	for _, v := range want {
		if v > high && !math.IsInf(v, 1) {
			high = v
		}
	}
	var bt ByteTable
	checkFastScan(t, &bt, words, n, l, table, low, want)
	d := bt.delta
	if !(low > 100*d && low <= 200*d) {
		t.Fatalf("bound %v quantized at Δ %v", low, d)
	}
	bt.q[0] ^= 1 // a marker a requantization would overwrite
	checkFastScan(t, &bt, words, n, l, table, math.Nextafter(low, math.Inf(1)), want)
	if bt.q[0] != quantizedAt(table[0], d)^1 {
		t.Fatal("a bound in the same range requantized the table")
	}
	checkFastScan(t, &bt, words, n, l, table, low/2.5, want)
	if bt.delta == d || bt.q[0] != quantizedAt(table[0], bt.delta) {
		t.Fatalf("bound %v kept Δ %v", low/2.5, d)
	}
	bt.Reset()
	if bt.fits(l, low/2.5) {
		t.Fatal("Reset left the table valid")
	}
	if kept := checkFastScan(t, &bt, words, n, l, table, high, want); kept <= n/2 || bt.bypass != byteBypassCalls {
		t.Fatalf("at the largest sum the byte pass kept %d of %d, bypass %d", kept, n, bt.bypass)
	}
	for i := 0; i < byteBypassCalls; i++ {
		checkFastScan(t, &bt, words, n, l, table, high, want)
	}
	if bt.bypass != 0 {
		t.Fatalf("bypass %d after %d calls", bt.bypass, byteBypassCalls)
	}
	checkFastScan(t, &bt, words, n, l, table, high, want)
	checkFastScan(t, &bt, words, n, l, table, low, want) // requantizes: the byte pass again
	if bt.bypass != 0 {
		t.Fatalf("a requantized table still bypassed (%d)", bt.bypass)
	}
}

func quantizedAt(v, d float64) uint8 {
	q := make([]uint8, 1)
	quantizeRef([]float64{v}, 1/d, q)
	return q[0]
}
