package bench

import (
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/dataset"
	"repro/internal/distance"
	"repro/internal/fft"
	"repro/internal/sax"
	"repro/internal/sfa"
	"repro/internal/stats"
)

// RunFig1 reproduces Fig. 1: it quantifies, per dataset, how well an
// 8-value PAA versus an 8-value Fourier approximation reconstructs the
// series (mean squared reconstruction error — the figure's visual flat-line
// failure becomes a large PAA error), and summarizes the value distribution
// (skewness/excess kurtosis; N(0,1) would give 0/0, the iSAX assumption).
func RunFig1(cfg SuiteConfig, w io.Writer) error {
	c := cfg.withDefaults()
	tw := newTable(w)
	fmt.Fprintln(tw, "dataset\tPAA MSE\tFFT MSE\tPAA/FFT\tskew\tex.kurtosis")
	const values = 8 // both summarizations get 8 values, as in the figure
	for _, spec := range c.Datasets {
		small := spec
		small.Count = 200
		m, err := dataset.Generate(small, c.Seed)
		if err != nil {
			return err
		}
		plan := fft.MustPlan(m.Stride)
		sq, err := sax.NewQuantizer(m.Stride, values, 8)
		if err != nil {
			return err
		}
		paa, means := sq.NewEncoder(), make([]float64, values)
		var paaMSE, fftMSE float64
		var allValues []float64
		for i := 0; i < m.Len(); i++ {
			row := m.Row(i)
			allValues = append(allValues, row...)
			p, err := paaReconstructionMSE(paa, row, means)
			if err != nil {
				return err
			}
			e, err := fftReconstructionMSE(plan, row, values)
			if err != nil {
				return err
			}
			paaMSE += p
			fftMSE += e
		}
		paaMSE /= float64(m.Len())
		fftMSE /= float64(m.Len())
		ratio := math.Inf(1)
		if fftMSE > 0 {
			ratio = paaMSE / fftMSE
		}
		fmt.Fprintf(tw, "%s\t%.4f\t%.4f\t%.1fx\t%+.2f\t%+.2f\n",
			spec.Name, paaMSE, fftMSE, ratio,
			stats.Skewness(allValues), stats.Kurtosis(allValues))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "(large PAA/FFT ratios are the paper's 'flat line' failure cases;")
	fmt.Fprintln(w, " skew/kurtosis far from 0 break the N(0,1) assumption of iSAX)")
	return nil
}

// paaReconstructionMSE reconstructs the series from its segment means, an
// iSAX encoder's query representation written into means (repeating each
// mean across its segment), and returns the MSE.
func paaReconstructionMSE(paa *sfa.Transformer, row, means []float64) (float64, error) {
	means, err := paa.QueryRepr(row, means)
	if err != nil {
		return 0, err
	}
	n, l := len(row), len(means)
	var mse float64
	for j := 0; j < n; j++ {
		d := row[j] - means[j*l/n]
		mse += d * d
	}
	return mse / float64(n), nil
}

// fftReconstructionMSE keeps the l/2 complex coefficients with the largest
// magnitude (the adaptive choice that mirrors SFA's variance selection at
// dataset level) and measures the inverse-transform error.
func fftReconstructionMSE(plan *fft.Plan, row []float64, values int) (float64, error) {
	n := len(row)
	spec, err := plan.FullSpectrumReal(row)
	if err != nil {
		return 0, err
	}
	nc := n/2 + 1
	type mag struct {
		k int
		m float64
	}
	mags := make([]mag, 0, nc-1)
	for k := 1; k < nc; k++ {
		mags = append(mags, mag{k, spec[2*k]*spec[2*k] + spec[2*k+1]*spec[2*k+1]})
	}
	sort.Slice(mags, func(a, b int) bool { return mags[a].m > mags[b].m })
	keep := values / 2
	if keep > len(mags) {
		keep = len(mags)
	}
	// Build the truncated spectrum (unnormalized complex form) and invert.
	buf := make([]complex128, n)
	scale := math.Sqrt(float64(n)) // undo the 1/sqrt(n) ForwardReal scaling
	for i := 0; i < keep; i++ {
		k := mags[i].k
		re, im := spec[2*k]*scale, spec[2*k+1]*scale
		buf[k] = complex(re, im)
		if k != 0 && k != n/2 {
			buf[n-k] = complex(re, -im)
		}
	}
	if err := plan.InverseNormalized(buf); err != nil {
		return 0, err
	}
	var mse float64
	for j := 0; j < n; j++ {
		d := row[j] - real(buf[j])
		mse += d * d
	}
	return mse / float64(n), nil
}

// RunFig2 reproduces Fig. 2/3: the SAX and SFA words of one example series
// for word lengths 4, 8 and 12 over an 8-symbol alphabet, printed with the
// paper's letter notation.
func RunFig2(_ SuiteConfig, w io.Writer) error {
	// The paper's example series: a smooth multi-harmonic signal.
	n := 160
	series := make([]float64, n)
	for j := 0; j < n; j++ {
		x := float64(j) / float64(n)
		series[j] = math.Sin(2*math.Pi*2*x) + 0.6*math.Sin(2*math.Pi*5*x+1) + 0.3*math.Sin(2*math.Pi*9*x)
	}
	distance.ZNormalize(series)
	// A small training collection from the same process for MCB.
	train := distance.NewMatrix(256, n)
	for i := 0; i < train.Len(); i++ {
		row := train.Row(i)
		ph := float64(i) * 0.13
		for j := 0; j < n; j++ {
			x := float64(j) / float64(n)
			row[j] = math.Sin(2*math.Pi*2*x+ph) + 0.6*math.Sin(2*math.Pi*5*x+1+ph) + 0.3*math.Sin(2*math.Pi*9*x+2*ph)
		}
	}
	train.ZNormalizeAll()

	tw := newTable(w)
	fmt.Fprintln(tw, "l\tSAX word\tSFA word")
	for _, l := range []int{4, 8, 12} {
		sq, err := sax.NewQuantizer(n, l, 3) // 8 symbols
		if err != nil {
			return err
		}
		saxWord, err := sq.NewEncoder().Word(series, make([]byte, l))
		if err != nil {
			return err
		}
		fq, err := sfa.Learn(train, sfa.Options{WordLength: l, Bits: 3, SampleRate: 1, MaxCoeffs: n / 2})
		if err != nil {
			return err
		}
		sfaWord, err := fq.NewTransformer().Word(series, make([]byte, l))
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%d\t%s\t%s\n", l, letters(saxWord), letters(sfaWord))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "(SAX symbols quantize PAA means with fixed N(0,1) bins; SFA symbols")
	fmt.Fprintln(w, " quantize selected Fourier values with per-value learned bins)")
	return nil
}

// letters renders a word with the paper's 'a'..'h' notation.
func letters(word []byte) string {
	out := make([]byte, len(word))
	for i, s := range word {
		out[i] = 'a' + s
	}
	return string(out)
}
