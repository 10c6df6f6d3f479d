package bench

import (
	"fmt"
	"io"
	"math"

	"repro/internal/dataset"
	"repro/internal/distance"
	"repro/internal/sax"
	"repro/internal/sfa"
	"repro/internal/stats"
)

// tlbAlphabets is the alphabet sweep of the paper's Table V/VI.
var tlbAlphabets = []int{4, 8, 16, 32, 64, 128, 256}

const tlbWordLength = 16 // the paper fixes l = 16 for the ablation

// tlbForMethod computes the mean tightness of lower bound —
// sqrt(LBD)/trueED averaged over all (query, collection series) pairs —
// for one method at one alphabet size. train is the collection (and the
// MCB learning set), test the queries, following the paper's protocol.
func tlbForMethod(m tlbMethod, bits int, train, test *distance.Matrix) (float64, error) {
	l := tlbWordLength
	var q *sfa.Quantizer
	if m.IsSAX {
		sq, err := sax.NewQuantizer(train.Stride, l, bits)
		if err != nil {
			return 0, err
		}
		q = sq.Quantizer
	} else {
		var err error
		q, err = sfa.Learn(train, sfa.Options{
			WordLength: l,
			Bits:       bits,
			Binning:    m.Binning,
			Selection:  m.Selection,
			SampleRate: 1, // the whole train split, as in the paper's protocol
		})
		if err != nil {
			return 0, err
		}
	}
	tr := q.NewTransformer()
	words := make([]byte, train.Len()*l)
	if err := tr.Words(train.Data, words); err != nil {
		return 0, err
	}
	var sum float64
	var count int
	qr := make([]float64, l)
	for qi := 0; qi < test.Len(); qi++ {
		if _, err := tr.QueryRepr(test.Row(qi), qr); err != nil {
			return 0, err
		}
		for i := 0; i < train.Len(); i++ {
			ed := math.Sqrt(distance.SquaredED(test.Row(qi), train.Row(i)))
			if ed == 0 {
				continue
			}
			lb := math.Sqrt(q.MinDist(qr, words[i*l:(i+1)*l]))
			sum += lb / ed
			count++
		}
	}
	if count == 0 {
		return 0, fmt.Errorf("bench: no valid TLB pairs")
	}
	return sum / float64(count), nil
}

// tlbSplits abstracts "a list of (train, test) dataset pairs" so the UCR
// and SOFA benchmarks share the sweep code.
type tlbSplit struct {
	Name  string
	Train *distance.Matrix
	Test  *distance.Matrix
}

func ucrSplits(c SuiteConfig) ([]tlbSplit, error) {
	var out []tlbSplit
	for _, spec := range dataset.UCRCatalog() {
		train, test, err := dataset.GenerateUCR(spec, c.Seed)
		if err != nil {
			return nil, err
		}
		out = append(out, tlbSplit{spec.Name, train, test})
	}
	return out, nil
}

func sofaSplits(c SuiteConfig) ([]tlbSplit, error) {
	var out []tlbSplit
	for _, spec := range c.Datasets {
		small := spec
		small.Count = 300 // TLB is O(train x test); keep the pair count sane
		train, err := dataset.Generate(small, c.Seed)
		if err != nil {
			return nil, err
		}
		test, err := dataset.GenerateQueries(small, 30, c.Seed)
		if err != nil {
			return nil, err
		}
		out = append(out, tlbSplit{spec.Name, train, test})
	}
	return out, nil
}

// tlbSweep computes scores[split][method] at the given alphabet.
func tlbSweep(splits []tlbSplit, bits int) ([][]float64, error) {
	methods := tlbMethods()
	scores := make([][]float64, len(splits))
	for si, sp := range splits {
		scores[si] = make([]float64, len(methods))
		for mi, m := range methods {
			v, err := tlbForMethod(m, bits, sp.Train, sp.Test)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", sp.Name, m.Name, err)
			}
			scores[si][mi] = v
		}
	}
	return scores, nil
}

// runTLBTable prints mean TLB per method across the alphabet sweep.
func runTLBTable(splits []tlbSplit, w io.Writer) error {
	methods := tlbMethods()
	tw := newTable(w)
	fmt.Fprint(tw, "method")
	for _, a := range tlbAlphabets {
		fmt.Fprintf(tw, "\ta=%d", a)
	}
	fmt.Fprintln(tw)
	rows := make([][]float64, len(methods))
	for ai, alpha := range tlbAlphabets {
		bits := bitsFor(alpha)
		scores, err := tlbSweep(splits, bits)
		if err != nil {
			return err
		}
		for mi := range methods {
			col := make([]float64, len(splits))
			for si := range splits {
				col[si] = scores[si][mi]
			}
			if rows[mi] == nil {
				rows[mi] = make([]float64, len(tlbAlphabets))
			}
			rows[mi][ai] = stats.Mean(col)
		}
	}
	for mi, m := range methods {
		fmt.Fprint(tw, m.Name)
		for ai := range tlbAlphabets {
			fmt.Fprintf(tw, "\t%.2f", rows[mi][ai])
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

func bitsFor(alpha int) int {
	bits := 0
	for 1<<bits < alpha {
		bits++
	}
	return bits
}

// RunTable5 reproduces Table V / Fig. 14 left: mean TLB on the UCR-like
// datasets for increasing alphabet sizes.
func RunTable5(cfg SuiteConfig, w io.Writer) error {
	c := cfg.withDefaults()
	splits, err := ucrSplits(c)
	if err != nil {
		return err
	}
	return runTLBTable(splits, w)
}

// RunTable6 reproduces Table VI / Fig. 14 right: mean TLB on the 17 SOFA
// datasets for increasing alphabet sizes.
func RunTable6(cfg SuiteConfig, w io.Writer) error {
	c := cfg.withDefaults()
	splits, err := sofaSplits(c)
	if err != nil {
		return err
	}
	return runTLBTable(splits, w)
}

// RunFig15 reproduces Fig. 15: mean TLB ranks per method at alphabet 256
// with Wilcoxon-Holm cliques, on both benchmarks (lower rank is better in
// the paper's diagram; we rank higher TLB as better, i.e. rank 1).
func RunFig15(cfg SuiteConfig, w io.Writer) error {
	c := cfg.withDefaults()
	for _, bench := range []struct {
		name   string
		splits func(SuiteConfig) ([]tlbSplit, error)
	}{
		{"UCR-like datasets", ucrSplits},
		{"SOFA datasets", sofaSplits},
	} {
		splits, err := bench.splits(c)
		if err != nil {
			return err
		}
		scores, err := tlbSweep(splits, 8) // alphabet 256
		if err != nil {
			return err
		}
		ranks, err := stats.MeanRanks(scores, false) // higher TLB is better
		if err != nil {
			return err
		}
		cliques, err := stats.HolmCliques(scores, 0.05)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s (alphabet 256):\n", bench.name)
		tw := newTable(w)
		fmt.Fprintln(tw, "method\tmean rank")
		for mi, m := range tlbMethods() {
			fmt.Fprintf(tw, "%s\t%.4f\n", m.Name, ranks[mi])
		}
		if err := tw.Flush(); err != nil {
			return err
		}
		if len(cliques) == 0 {
			fmt.Fprintln(w, "cliques: none (all methods pairwise distinguishable)")
		} else {
			fmt.Fprint(w, "indistinguishable pairs (p>=0.05 Wilcoxon-Holm):")
			ms := tlbMethods()
			for _, p := range cliques {
				fmt.Fprintf(w, " [%s ~ %s]", ms[p[0]].Name, ms[p[1]].Name)
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}
