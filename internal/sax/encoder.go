package sax

import "fmt"

// Encoder adapts a Quantizer to the per-goroutine encoder shape shared with
// sfa.Transformer: it owns the PAA scratch buffer so Word/QueryRepr are
// allocation-free. Not safe for concurrent use; create one per worker.
type Encoder struct {
	q       *Quantizer
	scratch []float64
}

// NewEncoder creates an encoder for the quantizer.
func (q *Quantizer) NewEncoder() *Encoder {
	return &Encoder{q: q, scratch: make([]float64, q.l)}
}

// Word computes the full-cardinality SAX word of series into dst.
func (e *Encoder) Word(series []float64, dst []byte) ([]byte, error) {
	return e.q.Word(series, dst, e.scratch)
}

// Words computes the words of a block of series, held back to back in rows,
// into dst: word r at dst[r*l:(r+1)*l], one Word per series.
func (e *Encoder) Words(rows []float64, dst []byte) error {
	n, l := e.q.n, e.q.l
	if len(rows)%n != 0 {
		return fmt.Errorf("sax: block length %d is not a multiple of the series length %d", len(rows), n)
	}
	if len(dst) < len(rows)/n*l {
		return fmt.Errorf("sax: dst length %d < %d", len(dst), len(rows)/n*l)
	}
	for r := 0; r < len(rows)/n; r++ {
		if _, err := e.Word(rows[r*n:(r+1)*n], dst[r*l:(r+1)*l]); err != nil {
			return err
		}
	}
	return nil
}

// QueryRepr computes the PAA of the query into dst.
func (e *Encoder) QueryRepr(query []float64, dst []float64) ([]float64, error) {
	return e.q.QueryRepr(query, dst)
}
