// Package index implements the MESSI-style parallel tree index the paper
// adapts for SOFA (Section IV-A/B/C): a variable-cardinality symbolic prefix
// tree built in parallel over in-memory data series, answering exact 1-NN
// and k-NN queries with the GEMINI framework — lower-bound pruning against a
// shared best-so-far distance, priority-queue ordered leaf refinement, and
// SIMD-structured early-abandoning distance kernels.
//
// The tree is generic over the summarization: MESSI instantiates it with
// iSAX, SOFA with SFA. Both are one type, sfa.Quantizer — a projection
// basis (segment means for iSAX, selected DFT values for SFA), per-position
// breakpoint tables and weights — so both provide full-cardinality words per
// series and a real-valued query-side representation through one word path,
// and per-position breakpoint tables whose prefix structure defines the
// variable-cardinality node intervals.
//
// # Query hot-path layout
//
// The refinement loop (Algorithm 3's role in the pipeline) is built around
// data layout rather than emulated intrinsics:
//
//   - One symbol width. A symbol is a byte (SymbolBits = 8, the paper's
//     alphabet of 256): every byte value is a symbol, node prefixes shift
//     by a constant, and the constructors refuse any other width.
//
//   - Flat LBD tables. The per-summarization gather tables and the
//     per-query distance table are single flat []float64 slices indexed
//     j*simd.Alphabet+sym, not ragged [][]float64: one base pointer, no
//     slice-header loads in the inner loop. The per-query table (distTable)
//     is the refinement kernel — it folds query position, weights
//     and breakpoint intervals into one lookup per word position, built
//     once per query into Searcher-owned scratch (32 KiB at l=16;
//     L1/L2-resident for the whole refinement phase) and
//     reused outright when the query representation repeats. It is the
//     only LBD kernel: a leaf's block of words is bounded in one call to
//     the block kernel (distTable.minDistBlockEA through internal/simd: on
//     the AVX-512 VBMI tier a byte pass over a per-worker uint8 copy of the
//     table, the exact float64 chain only for the series it keeps; the
//     staged AVX-512 or AVX2 kernel elsewhere), and kernel.minDistScalar, which
//     reads the interval tables directly, is the reference tests hold it
//     to; BenchmarkLBDKernels compares the table variants. Real Euclidean
//     distances dispatch to AVX2+FMA assembly the same way
//     (internal/distance -> simd.SquaredEDEA).
//
//   - SoA leaf blocks. Every leaf carries its members' words as one
//     contiguous block (node.words, row i belonging to node.ids[i]), so
//     refinement streams sequential memory. The blocks are the tree's only
//     copy of the words: splits divide a block's rows between the children,
//     inserts append a row, and CheckInvariants checks every row against
//     its leaf's prefixes.
//
//   - Row prefetch. A survivor's real distance reads a random row of the
//     series matrix, which on pruning-hostile data is mostly a wait on
//     DRAM. Before the ED of survivor p, the survivor walk hints the row of
//     survivor p+8 into cache (simd.Prefetch), but only while that
//     survivor's exact LBD still beats the bound, and only as deep as
//     recent EDs actually read (a per-worker running mean plus one block).
//     A prefetch is a hint: pruning, answers and SearchStats are unchanged,
//     and the portable tier does not issue it.
//
//   - Zero-allocation searches. All per-query state — the z-normalized
//     query copy, representation, word, flat table, k-NN collector, leaf
//     priority queues (generic queue.PQ[*node], no interface boxing) and
//     the result buffer — lives in Searcher scratch, and the k-NN heap and
//     queues use hand-rolled sift operations. With one worker the engine
//     runs inline (no goroutine fan-out) and a steady-state Search performs
//     zero heap allocations; the shared BSF atomic is read once per
//     64-series block rather than per series.
//
//   - Batched throughput. NewSerialSearcher is the single-threaded building
//     block the collection's batch and streaming engines pool, one per
//     concurrent query (the FAISS mini-batch protocol), trading intra-query
//     latency for aggregate queries/second.
//
//   - Shard participation. The engine runs in two phases (seed the
//     best-so-far from the best-matching leaf, then traverse and refine)
//     exposed as SeedShard/FinishShard: a sharded collection (core.Collection)
//     points S trees at one shared KNNCollector, seeds all shards first, and
//     lets the shards prune against each other's results; tree-local ids map
//     to collection-global ids at offer time (ShardQuery.IDMul/IDAdd).
package index

import "repro/internal/simd"

// SymbolBits is the width of every symbol the tree indexes: a symbol is a
// byte, so a full-cardinality position has simd.Alphabet = 256 symbols and
// every byte value is one of them. Build, BuildFromWords and FromShape
// refuse a Summarizer whose MaxBits differs.
const SymbolBits = simd.SymbolBits

// Summarizer describes a learned or fixed symbolic summarization. The
// methods must be safe for concurrent use (the tables are immutable after
// construction).
type Summarizer interface {
	// Segments returns the word length l.
	Segments() int
	// MaxBits returns the bits per symbol at full cardinality; the tree
	// takes only SymbolBits.
	MaxBits() int
	// Weights returns the per-position weight w[j] such that the squared
	// lower-bound distance is sum_j w[j]*d_j^2 (n/l for SAX, the Parseval
	// multiplicity for SFA).
	Weights() []float64
	// Breakpoints returns the sorted full-cardinality interior breakpoint
	// table for position j (length 2^MaxBits-1).
	Breakpoints(j int) []float64
}

// Encoder transforms raw series under a Summarizer. Encoders are
// per-goroutine: they own the scratch that holds the projected values of a
// block of series (sfa.Transformer, for SFA and iSAX alike).
type Encoder interface {
	// Word writes the full-cardinality word of series into dst.
	Word(series []float64, dst []byte) ([]byte, error)
	// Words writes the full-cardinality words of a block of series, held
	// back to back in rows, into dst: word r at dst[r*l:(r+1)*l],
	// byte-identical to Word of series r. The build transforms each
	// worker's chunk with one call, which projects the block with a
	// register-tiled kernel (simd.Project) and quantizes the values.
	Words(rows []float64, dst []byte) error
	// QueryRepr writes the real-valued query-side representation (PAA of the
	// query for SAX, selected DFT values for SFA) into dst.
	QueryRepr(query []float64, dst []float64) ([]float64, error)
}

// Summarization couples a Summarizer with an Encoder factory. core's one
// adapter over sfa.Quantizer satisfies it, for SOFA and MESSI alike.
type Summarization interface {
	Summarizer
	NewIndexEncoder() Encoder
}
