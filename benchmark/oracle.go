package main

import (
	"fmt"
	"math"
	"os"
	"slices"

	"repro/internal/distance"
	"repro/internal/index"
	"repro/internal/scan"
)

// tally counts the operations a run attempted and those that failed: an
// error, an answer the oracle rejects, or an acknowledged write lost.
type tally struct {
	attempted int
	failed    int
}

// ok counts one operation and reports a failure (the first few in full).
func (t *tally) ok(good bool, format string, args ...any) {
	t.attempted++
	if good {
		return
	}
	t.failed++
	if t.failed <= 5 {
		fmt.Fprintf(os.Stderr, "FAILED: "+format+"\n", args...)
	}
}

// err counts one operation that fails iff err is non-nil.
func (t *tally) err(e error, what string) {
	t.ok(e == nil, "%s: %v", what, e)
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
}

// sameAnswer reports whether got is the k-NN answer want, up to distance
// ties: distances agree rank by rank within tol (relative), and every
// returned id is either one the oracle returned or tied with the oracle's
// boundary distance.
func sameAnswer(got, want []index.Result, tol float64) bool {
	if len(got) != len(want) {
		return false
	}
	if len(want) == 0 {
		return true
	}
	near := func(a, b float64) bool { return math.Abs(a-b) <= tol*math.Max(1, math.Abs(b)) }
	ids := make(map[index.ID]bool, len(want))
	for _, r := range want {
		ids[r.ID] = true
	}
	kth := want[len(want)-1].Dist
	for i, r := range got {
		if !near(r.Dist, want[i].Dist) {
			return false
		}
		if !ids[r.ID] && !near(r.Dist, kth) {
			return false
		}
	}
	return true
}

// checkAgainstScan answers the first n queries with a parallel scan of data
// (the paper's UCR baseline is the oracle) and with every search given,
// mapping the scan's row numbers to ids through idOf (nil: row number is the
// id). A search receives the query's number and series.
func checkAgainstScan(t *tally, data, queries *distance.Matrix, idOf []index.ID, n int, tol float64,
	searches ...func(i int, q []float64) ([]index.Result, error)) error {
	sc, err := scan.New(data, nproc)
	if err != nil {
		return err
	}
	for i := 0; i < min(n, queries.Len()); i++ {
		want, err := sc.Search(queries.Row(i), min(kNN, data.Len()))
		if err != nil {
			return err
		}
		for j := range want {
			if idOf != nil {
				want[j].ID = idOf[want[j].ID]
			}
		}
		for _, search := range searches {
			got, err := search(i, queries.Row(i))
			t.ok(err == nil && sameAnswer(got, want, tol), "query %d: got %v (err %v), oracle %v", i, got, err, want)
		}
	}
	return nil
}

func median(x []float64) float64 { return percentile(x, 50) }

// percentile is the nearest-rank p-th percentile of x (0 for no samples).
func percentile(x []float64, p float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := slices.Clone(x)
	slices.Sort(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

func sum(x []float64) (total float64) {
	for _, v := range x {
		total += v
	}
	return total
}

func mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	return sum(x) / float64(len(x))
}
