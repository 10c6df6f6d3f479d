package simd

import "errors"

// errProjectContract is Project's panic value: a preallocated error, so the
// check on the query path (QueryRepr is a Project call) builds no value.
var errProjectContract = errors.New("simd: Project slice lengths violate the kernel contract")

// Project computes the dot products of a block of rows with the first l rows
// of a basis: rows holds len(rows)/n series of length n back to back, basis
// is row-major with rows of length n, and
//
//	out[r*l+j] = Dot(basis[j*n:(j+1)*n], rows[r*n:(r+1)*n])
//
// bit for bit, in every tier. SFA words are these values quantized, so a
// word never depends on which path computed it.
//
// A register tile computes the full 16-element blocks of several pairs at
// once, each pair with Dot's own accumulators, FMA operand roles and
// reduction tree: 2 rows × 4 basis rows on the AVX-512 tier (an odd last row
// runs as a 1×4 tile), 3 rows × 1 basis row on the AVX2 tier. The n%16 tail
// follows with Dot's sequential FMA; pairs outside the tile grid (the l%4
// last basis rows on AVX-512, the m%3 last rows on AVX2, everything on the
// portable tier) take Dot itself.
//
// Contract: n >= 1, len(rows) a multiple of n, len(basis) >= l*n and
// len(out) >= len(rows)/n*l.
func Project(basis []float64, l, n int, rows, out []float64) {
	if n < 1 || l < 0 || len(rows)%n != 0 || len(basis) < l*n || len(out) < len(rows)/n*l {
		panic(errProjectContract)
	}
	m := len(rows) / n
	mt, lt := projectTiles(basis, l, n, rows, out)
	n16 := n &^ (edBlock - 1)
	for r := 0; r < m; r++ {
		row, o := rows[r*n:(r+1)*n], out[r*l:(r+1)*l]
		j := 0
		if r < mt {
			if n16 < n {
				for ; j < lt; j++ {
					o[j] = dotTail(basis[j*n:(j+1)*n], row, o[j], n16)
				}
			}
			j = lt
		}
		for ; j < l; j++ {
			o[j] = Dot(basis[j*n:(j+1)*n], row)
		}
	}
}
