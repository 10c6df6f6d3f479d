// TLB: a walk-through of the paper's Section V-E ablation. For one
// high-frequency and one smooth dataset, compute the tightness of lower
// bound of the five summarization variants (SFA EW/ED, with and without
// variance selection, and iSAX) across alphabet sizes, and show how bound
// tightness translates into pruning power.
package main

import (
	"fmt"
	"log"
	"math"

	"repro/internal/dataset"
	"repro/internal/distance"
	"repro/internal/sax"
	"repro/internal/sfa"
)

const wordLength = 16

type variant struct {
	name      string
	isSAX     bool
	binning   sfa.Binning
	selection sfa.Selection
}

func variants() []variant {
	return []variant{
		{"SFA EW +VAR", false, sfa.EquiWidth, sfa.HighestVariance},
		{"SFA ED +VAR", false, sfa.EquiDepth, sfa.HighestVariance},
		{"SFA EW", false, sfa.EquiWidth, sfa.FirstCoefficients},
		{"SFA ED", false, sfa.EquiDepth, sfa.FirstCoefficients},
		{"iSAX", true, 0, 0},
	}
}

func main() {
	for _, name := range []string{"LenDB", "SALD"} {
		spec, err := dataset.ByName(name)
		if err != nil {
			log.Fatal(err)
		}
		spec.Count = 400
		train, err := dataset.Generate(spec, 3)
		if err != nil {
			log.Fatal(err)
		}
		test, err := dataset.GenerateQueries(spec, 25, 3)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("=== %s (%d series x %d) ===\n", name, train.Len(), train.Stride)
		fmt.Printf("%-12s", "alphabet")
		for _, a := range []int{4, 16, 64, 256} {
			fmt.Printf("  a=%-5d", a)
		}
		fmt.Println(" pruning@256")
		for _, v := range variants() {
			fmt.Printf("%-12s", v.name)
			var lastTLB, pruning float64
			for _, alpha := range []int{4, 16, 64, 256} {
				tlb, p, err := evaluate(v, alpha, train, test)
				if err != nil {
					log.Fatal(err)
				}
				fmt.Printf("  %.3f  ", tlb)
				lastTLB, pruning = tlb, p
			}
			_ = lastTLB
			fmt.Printf(" %5.1f%%\n", pruning*100)
		}
		fmt.Println()
	}
	fmt.Println("TLB = lower bound / true distance (higher is better; 1.0 = perfect).")
	fmt.Println("pruning@256 = fraction of candidates whose word-level bound already")
	fmt.Println("exceeds the true 1-NN distance — the work the index never does.")
}

// evaluate returns the mean TLB and the 1-NN pruning power of a variant.
func evaluate(v variant, alpha int, train, test *distance.Matrix) (tlb, pruning float64, err error) {
	bits := 0
	for 1<<bits < alpha {
		bits++
	}
	var q *sfa.Quantizer
	if v.isSAX {
		sq, err := sax.NewQuantizer(train.Stride, wordLength, bits)
		if err != nil {
			return 0, 0, err
		}
		q = sq.Quantizer
	} else {
		q, err = sfa.Learn(train, sfa.Options{
			WordLength: wordLength, Bits: bits,
			Binning: v.binning, Selection: v.selection, SampleRate: 1,
		})
		if err != nil {
			return 0, 0, err
		}
	}
	tr := q.NewTransformer()
	words := make([]byte, train.Len()*wordLength)
	if err := tr.Words(train.Data, words); err != nil {
		return 0, 0, err
	}
	var lbs [][]float64 // [query][candidate] squared lower bounds
	qr := make([]float64, wordLength)
	for qi := 0; qi < test.Len(); qi++ {
		if _, err := tr.QueryRepr(test.Row(qi), qr); err != nil {
			return 0, 0, err
		}
		row := make([]float64, train.Len())
		for i := range row {
			row[i] = q.MinDist(qr, words[i*wordLength:(i+1)*wordLength])
		}
		lbs = append(lbs, row)
	}
	// TLB and pruning power against the true distances.
	var tlbSum float64
	var tlbCount, pruned, total int
	for qi := 0; qi < test.Len(); qi++ {
		dists := make([]float64, train.Len())
		best := math.Inf(1)
		for i := 0; i < train.Len(); i++ {
			dists[i] = distance.SquaredED(test.Row(qi), train.Row(i))
			if dists[i] < best {
				best = dists[i]
			}
		}
		for i := 0; i < train.Len(); i++ {
			if dists[i] > 0 {
				tlbSum += math.Sqrt(lbs[qi][i]) / math.Sqrt(dists[i])
				tlbCount++
			}
			total++
			if lbs[qi][i] > best {
				pruned++
			}
		}
	}
	return tlbSum / float64(tlbCount), float64(pruned) / float64(total), nil
}
