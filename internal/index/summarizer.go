// Package index implements the MESSI-style parallel tree index the paper
// adapts for SOFA (Section IV-A/B/C): a variable-cardinality symbolic prefix
// tree built in parallel over in-memory data series, answering exact 1-NN
// and k-NN queries with the GEMINI framework — lower-bound pruning against a
// shared best-so-far distance, priority-queue ordered leaf refinement, and
// SIMD-structured early-abandoning distance kernels.
//
// The tree is generic over the summarization: MESSI instantiates it with
// iSAX (sax.Quantizer), SOFA with SFA (sfa.Quantizer). Both provide
// full-cardinality words per series, a real-valued query-side
// representation, and per-position breakpoint tables whose prefix structure
// defines the variable-cardinality node intervals.
//
// # Query hot-path layout
//
// The refinement loop (Algorithm 3's role in the pipeline) is built around
// data layout rather than emulated intrinsics:
//
//   - Flat LBD tables. The per-summarization gather tables and the
//     per-query distance table are single flat []float64 slices indexed
//     j*alphabet+sym, not ragged [][]float64: one base pointer, no
//     slice-header loads in the inner loop. The per-query table (distTable)
//     is the refinement kernel — it folds query position, weights
//     and breakpoint intervals into one lookup per word position, built
//     once per query into Searcher-owned scratch (32 KiB at l=16,
//     alphabet=256; L1/L2-resident for the whole refinement phase) and
//     reused outright when the query representation repeats. The mask/blend
//     gather kernel (kernel.minDistEA) is retained as the Algorithm 3
//     reference, dispatched through internal/simd to real VGATHERQPD
//     assembly on AVX2 hardware; BenchmarkLBDKernels compares every
//     variant. Real Euclidean distances dispatch to AVX2+FMA assembly the
//     same way (internal/distance -> simd.SquaredEDEA).
//
//   - SoA leaf blocks. Every finalized leaf carries its members' words as
//     one contiguous block (node.words, row i belonging to node.ids[i]), so
//     refinement streams sequential memory instead of gathering
//     t.words[id*l:] per series. The global word buffer remains the source
//     of truth; blocks are maintained through splits and inserts and
//     checked by CheckInvariants.
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

// Summarizer describes a learned or fixed symbolic summarization. The
// methods must be safe for concurrent use (the tables are immutable after
// construction).
type Summarizer interface {
	// Segments returns the word length l.
	Segments() int
	// MaxBits returns the bits per symbol at full cardinality.
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
// per-goroutine (they own scratch buffers and FFT plans).
type Encoder interface {
	// Word writes the full-cardinality word of series into dst.
	Word(series []float64, dst []byte) ([]byte, error)
	// QueryRepr writes the real-valued query-side representation (PAA of the
	// query for SAX, selected DFT values for SFA) into dst.
	QueryRepr(query []float64, dst []float64) ([]float64, error)
}

// Summarization couples a Summarizer with an Encoder factory. Both
// sax.Quantizer and the sfa adapter satisfy it.
type Summarization interface {
	Summarizer
	NewIndexEncoder() Encoder
}
