// Package dataset provides synthetic stand-ins for the paper's benchmark:
// the 17 named datasets of Table I (1 billion series, 1 TB — unavailable
// offline) plus a UCR-archive-like collection for the TLB ablation.
//
// Each named dataset is replaced by a generator that reproduces the two
// properties the paper's analysis depends on:
//
//   - the *spectral profile* — how much Fourier variance sits in high
//     coefficients. This is what makes PAA/SAX collapse to a flat line
//     (paper Fig. 1) and drives SOFA's speedup over MESSI (Fig. 12/13);
//   - the *value distribution* — Gaussian vs heavy-tailed vs non-negative
//     histogram-like (Fig. 1 bottom), which breaks SAX's N(0,1) assumption.
//
// Dataset sizes are scaled from the paper's 0.5M–100M series down to
// laptop-scale defaults while keeping the relative ordering.
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/distance"
)

// Family is the broad generator class behind a dataset.
type Family int

const (
	// Seismic series: microseism background plus a damped high-frequency
	// event burst (P-wave onset), as in the SeisBench-derived datasets.
	Seismic Family = iota
	// VectorANN series: unordered descriptor vectors (SIFT1b, BigANN) —
	// effectively white across "positions", heavy-tailed, non-negative.
	VectorANN
	// DeepDescriptor series: L2-normalized deep embeddings (Deep1b) —
	// smooth, low-frequency dominated.
	DeepDescriptor
	// RedNoise series: long-memory random-walk-like signals (Astro AGN
	// variability, smooth biomedical signals like SALD).
	RedNoise
	// PhaseCurve series: smooth monotone-ish arrival curves
	// (ISC-EHB depth phases).
	PhaseCurve
)

func (f Family) String() string {
	switch f {
	case Seismic:
		return "seismic"
	case VectorANN:
		return "vector"
	case DeepDescriptor:
		return "deep"
	case RedNoise:
		return "rednoise"
	case PhaseCurve:
		return "phase"
	default:
		return fmt.Sprintf("Family(%d)", int(f))
	}
}

// Spec describes one synthetic dataset.
type Spec struct {
	Name   string
	Count  int // series to generate (scaled from the paper's Table I)
	Length int // series length (the paper's real lengths)
	Family Family

	// HFShare in [0,1] steers the fraction of signal energy placed in the
	// upper half of the spectrum — the knob behind the paper's Fig. 12/13
	// ordering (LenDB ~0.95 ... Deep1B ~0.15).
	HFShare float64
	// Burst enables a seismic event burst.
	Burst bool
	// HeavyTail draws amplitudes from an exponential rather than Gaussian
	// distribution (vector datasets; breaks the N(0,1) assumption).
	HeavyTail bool
	// PaperCount is the size of the original dataset in the paper.
	PaperCount int64
}

// Catalog returns the 17 datasets of the paper's Table I with scaled
// counts. The scale factor keeps relative sizes while bounding the total
// benchmark below ~1 GB in memory.
func Catalog() []Spec {
	mk := func(name string, paperCount int64, length int, fam Family, hf float64, burst, heavy bool) Spec {
		return Spec{
			Name:       name,
			Count:      scaledCount(paperCount),
			Length:     length,
			Family:     fam,
			HFShare:    hf,
			Burst:      burst,
			HeavyTail:  heavy,
			PaperCount: paperCount,
		}
	}
	return []Spec{
		mk("Astro", 100_000_000, 256, RedNoise, 0.35, false, false),
		mk("BigANN", 100_000_000, 100, VectorANN, 0.65, false, true),
		mk("Deep1b", 100_000_000, 96, DeepDescriptor, 0.15, false, false),
		mk("ETHZ", 4_999_932, 256, Seismic, 0.30, true, false),
		mk("Iquique", 578_853, 256, Seismic, 0.45, true, false),
		mk("ISC-EHBPhases", 100_000_000, 256, PhaseCurve, 0.20, false, false),
		mk("LenDB", 37_345_260, 256, Seismic, 0.95, true, false),
		mk("Meier2019JGR", 6_361_998, 256, Seismic, 0.88, true, false),
		mk("NEIC", 93_473_541, 256, Seismic, 0.33, true, false),
		mk("OBS", 15_508_794, 256, Seismic, 0.70, true, false),
		mk("OBST2024", 4_160_286, 256, Seismic, 0.35, true, false),
		mk("PNW", 31_982_766, 256, Seismic, 0.25, true, false),
		mk("SALD", 100_000_000, 128, RedNoise, 0.18, false, false),
		mk("SCEDC", 100_000_000, 256, Seismic, 0.90, true, false),
		mk("SIFT1b", 100_000_000, 128, VectorANN, 0.80, false, true),
		mk("STEAD", 87_323_433, 256, Seismic, 0.32, true, false),
		mk("TXED", 35_851_641, 256, Seismic, 0.25, true, false),
	}
}

// scaledCount maps the paper's dataset sizes (578k..100M) into a laptop
// range (2k..20k), preserving order.
func scaledCount(paperCount int64) int {
	c := int(paperCount / 5000)
	if c < 2000 {
		c = 2000
	}
	if c > 20000 {
		c = 20000
	}
	return c
}

// ByName returns the catalog spec with the given name.
func ByName(name string) (Spec, error) {
	for _, s := range Catalog() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("dataset: unknown dataset %q", name)
}

// Generate produces the dataset's series matrix, z-normalized, from a
// deterministic seed.
func Generate(spec Spec, seed int64) (*distance.Matrix, error) {
	return generate(spec, spec.Count, seed)
}

// GenerateQueries produces a query set drawn from the same generator with a
// disjoint seed stream, mirroring the paper's held-out 100-query sets.
func GenerateQueries(spec Spec, count int, seed int64) (*distance.Matrix, error) {
	return generate(spec, count, seed^0x5EED_C0FFEE)
}

func generate(spec Spec, count int, seed int64) (*distance.Matrix, error) {
	if count < 1 {
		return nil, fmt.Errorf("dataset: count must be >= 1, got %d", count)
	}
	if spec.Length < 8 {
		return nil, fmt.Errorf("dataset: length must be >= 8, got %d", spec.Length)
	}
	if spec.HFShare < 0 || spec.HFShare > 1 {
		return nil, fmt.Errorf("dataset: HFShare %v out of [0,1]", spec.HFShare)
	}
	m := distance.NewMatrix(count, spec.Length)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < count; i++ {
		row := m.Row(i)
		switch spec.Family {
		case Seismic:
			genSeismic(rng, row, spec)
		case VectorANN:
			genVector(rng, row, spec)
		case DeepDescriptor:
			genDeep(rng, row)
		case RedNoise:
			genRedNoise(rng, row, spec)
		case PhaseCurve:
			genPhaseCurve(rng, row, spec)
		default:
			return nil, fmt.Errorf("dataset: unknown family %v", spec.Family)
		}
	}
	m.ZNormalizeAll()
	return m, nil
}

// genSeismic builds microseism background (low-frequency noise) plus, for
// Burst specs, a damped oscillatory event whose carrier frequency rises
// with HFShare — the high-frequency content PAA averages away.
//
// Frequencies are integer DFT bins with only small jitter: like a real
// seismic band, the dataset's energy concentrates in a handful of Fourier
// coefficients whose real/imaginary values vary strongly across series
// (random phase and amplitude). That concentrated high variance is what
// SFA's variance selection exploits and PAA destroys.
func genSeismic(rng *rand.Rand, row []float64, spec Spec) {
	n := len(row)
	lowW := 1 - spec.HFShare
	hiW := spec.HFShare
	// Background: integrated noise (red spectrum).
	v := 0.0
	for j := range row {
		v += rng.NormFloat64()
		row[j] = lowW * v * 0.15
	}
	// Ambient band oscillation: sinusoids at the dataset's characteristic
	// integer bins (energy lands exactly in those coefficients). Bins are
	// absolute coefficient indices: the paper's "high frequency" regime is
	// energy above PAA's resolution (~coefficient 8 for l=16 words) but
	// within SFA's candidate pool (first 16 coefficients) — Fig. 13 reports
	// mean selected indices of 6..12.
	base := 2 + int(spec.HFShare*13) // bin in [2, 15]
	if base > n/2-3 {
		base = n/2 - 3
	}
	for h := 0; h < 2; h++ {
		f := float64(base + rng.Intn(3) - 1) // jitter within the band: +-1 bin
		ph := rng.Float64() * 2 * math.Pi
		amp := hiW * (0.4 + rng.Float64()*0.8)
		for j := range row {
			row[j] += amp * math.Sin(2*math.Pi*f*float64(j)/float64(n)+ph)
		}
	}
	// Event burst: damped oscillation at a random onset in the middle half
	// (the P-wave the paper's queries are aligned to). The decay spreads a
	// little energy around the carrier bin, as real wavelets do.
	if spec.Burst {
		onset := n/4 + rng.Intn(n/2)
		carrier := float64(base + rng.Intn(3) - 1)
		decay := 16 + rng.Float64()*32
		amp := 1.5 + rng.Float64()*2
		ph := rng.Float64() * 2 * math.Pi
		for j := onset; j < n; j++ {
			tt := float64(j - onset)
			row[j] += amp * math.Exp(-tt/decay) * math.Sin(2*math.Pi*carrier*float64(j)/float64(n)+ph)
		}
	}
	// Sensor noise.
	for j := range row {
		row[j] += 0.05 * rng.NormFloat64()
	}
}

// genVector builds SIFT/BigANN-like descriptor vectors: non-negative,
// heavy-tailed, spatially clustered magnitudes with no serial smoothness —
// which puts variance everywhere in the spectrum.
func genVector(rng *rand.Rand, row []float64, spec Spec) {
	n := len(row)
	// A few "active" regions of the histogram get large values.
	for j := range row {
		row[j] = rng.ExpFloat64() * 0.3
	}
	actives := 2 + rng.Intn(4)
	for a := 0; a < actives; a++ {
		center := rng.Intn(n)
		width := 1 + rng.Intn(4)
		amp := 2 + rng.ExpFloat64()*3
		for d := -width; d <= width; d++ {
			j := center + d
			if j >= 0 && j < n {
				row[j] += amp * math.Exp(-float64(d*d)/float64(width))
			}
		}
	}
	// HFShare controls position-to-position decorrelation: shuffle-like
	// high-frequency ripple.
	ripple := spec.HFShare
	for j := range row {
		row[j] += ripple * rng.ExpFloat64() * math.Abs(math.Sin(float64(j)*2.39996))
	}
}

// genDeep builds Deep1b-like embeddings: low-frequency smooth profiles (deep
// features are strongly correlated across adjacent dimensions after PCA-like
// training), plus small noise.
func genDeep(rng *rand.Rand, row []float64) {
	n := len(row)
	// Sum of a handful of low-frequency harmonics.
	for h := 1; h <= 4; h++ {
		amp := rng.NormFloat64() / float64(h)
		ph := rng.Float64() * 2 * math.Pi
		for j := range row {
			row[j] += amp * math.Sin(2*math.Pi*float64(h)*float64(j)/float64(n)+ph)
		}
	}
	for j := range row {
		row[j] += 0.08 * rng.NormFloat64()
	}
}

// genRedNoise builds AR(1)-style long-memory signals (Astro hard-X-ray
// variability, SALD biomedical profiles).
func genRedNoise(rng *rand.Rand, row []float64, spec Spec) {
	phi := 0.995 - spec.HFShare*0.25 // higher HFShare -> whiter noise
	v := rng.NormFloat64()
	for j := range row {
		v = phi*v + rng.NormFloat64()*math.Sqrt(1-phi*phi)
		row[j] = v
	}
	// Occasional flare (Astro-like).
	if rng.Float64() < 0.3 {
		onset := rng.Intn(len(row))
		amp := 1 + rng.ExpFloat64()
		decay := 5 + rng.Float64()*20
		for j := onset; j < len(row); j++ {
			row[j] += amp * math.Exp(-float64(j-onset)/decay)
		}
	}
}

// genPhaseCurve builds smooth monotone-trend curves with a knee, like
// travel-time/depth-phase profiles.
func genPhaseCurve(rng *rand.Rand, row []float64, spec Spec) {
	n := len(row)
	slope := rng.NormFloat64()
	knee := n/4 + rng.Intn(n/2)
	bend := rng.NormFloat64() * 2
	for j := range row {
		x := float64(j) / float64(n)
		row[j] = slope * x
		if j > knee {
			row[j] += bend * (float64(j-knee) / float64(n))
		}
	}
	// Light ripple so the series are not exactly collinear.
	f := (0.02 + spec.HFShare*0.1) * float64(n)
	ph := rng.Float64() * 2 * math.Pi
	for j := range row {
		row[j] += 0.1*math.Sin(2*math.Pi*f*float64(j)/float64(n)+ph) + 0.03*rng.NormFloat64()
	}
}
