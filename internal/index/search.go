package index

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/queue"
	"repro/internal/simd"
)

// ID identifies one indexed series in the id space of the caller's query.
// For a stand-alone tree search it is the tree-local id; for a
// collection-level search it is the collection's stable public id, which
// survives deletes, upserts and shard compaction (see ShardQuery). IDs are
// typed so mutation APIs (Delete, Upsert) and query results cannot be mixed
// up with raw offsets.
type ID int64

// Result is one answer of a similarity query. Dist is the squared
// z-normalized Euclidean distance (the library works in squared space
// throughout; take the square root at presentation time).
type Result struct {
	ID   ID
	Dist float64
}

// KNNCollector is the shared k-nearest container: a mutex-protected bounded
// max-heap plus an atomically readable bound (the current k-th best squared
// distance, +Inf while fewer than k results are known). The bound only ever
// decreases, which is what makes concurrent pruning safe.
type KNNCollector struct {
	mu    sync.Mutex
	k     int
	heap  resultMaxHeap
	bound atomic.Uint64
}

// resultMaxHeap is a max-heap by distance with hand-rolled sift operations:
// going through container/heap would box every Result through an interface,
// allocating on each insert of the query hot path.
type resultMaxHeap []Result

func (h resultMaxHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].Dist >= h[i].Dist {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

func (h resultMaxHeap) siftDown(i int) {
	n := len(h)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		max := left
		if right := left + 1; right < n && h[right].Dist > h[left].Dist {
			max = right
		}
		if h[i].Dist >= h[max].Dist {
			return
		}
		h[i], h[max] = h[max], h[i]
		i = max
	}
}

// NewKNNCollector creates a collector for the k nearest results.
func NewKNNCollector(k int) *KNNCollector {
	s := &KNNCollector{}
	s.Reset(k)
	return s
}

// Reset prepares the collector for a fresh query of k results, retaining the
// heap's backing array so pooled collectors add no per-query allocations.
func (s *KNNCollector) Reset(k int) {
	s.k = k
	s.heap = s.heap[:0]
	s.bound.Store(math.Float64bits(math.Inf(1)))
}

// Bound returns the current best-so-far pruning bound.
func (s *KNNCollector) Bound() float64 {
	return math.Float64frombits(s.bound.Load())
}

// Offer inserts a candidate if it improves the k-NN set and reports whether
// it did — callers caching the bound locally re-read it only on improvement.
func (s *KNNCollector) Offer(id ID, d float64) bool {
	if d >= s.Bound() {
		return false
	}
	s.mu.Lock()
	if len(s.heap) < s.k {
		s.heap = append(s.heap, Result{ID: id, Dist: d})
		s.heap.siftUp(len(s.heap) - 1)
		if len(s.heap) == s.k {
			s.bound.Store(math.Float64bits(s.heap[0].Dist))
		}
	} else if d < s.heap[0].Dist {
		s.heap[0] = Result{ID: id, Dist: d}
		s.heap.siftDown(0)
		s.bound.Store(math.Float64bits(s.heap[0].Dist))
	} else {
		s.mu.Unlock()
		return false
	}
	s.mu.Unlock()
	return true
}

// Results returns the collected answers sorted by ascending distance.
func (s *KNNCollector) Results() []Result {
	return s.ResultsAppend(nil)
}

// ResultsAppend appends the collected answers, sorted by ascending distance,
// to dst and returns the extended slice. Appending into a reused buffer
// keeps the steady-state query path allocation-free.
func (s *KNNCollector) ResultsAppend(dst []Result) []Result {
	s.mu.Lock()
	base := len(dst)
	dst = append(dst, s.heap...)
	s.mu.Unlock()
	out := dst[base:]
	slices.SortFunc(out, func(a, b Result) int {
		switch {
		case a.Dist != b.Dist:
			if a.Dist < b.Dist {
				return -1
			}
			return 1
		case a.ID != b.ID:
			if a.ID < b.ID {
				return -1
			}
			return 1
		default:
			return 0
		}
	})
	return dst
}

// Searcher answers queries against a Tree. It owns all per-query scratch —
// the encoder, the z-normalized query copy, the query representation and
// word, the flat per-query distance table, the k-NN collector, the leaf
// priority queues and the result buffer — so a steady-state Search performs
// zero heap allocations. It is NOT safe for concurrent use; create one per
// querying goroutine. A single Search call internally uses the tree's
// configured worker parallelism, matching the paper's one-query-at-a-time
// protocol.
type Searcher struct {
	t     *Tree
	enc   Encoder
	qbuf  []float64 // z-normalized query copy
	qr    []float64
	qword []byte
	kern  kernel
	dt    distTable // flat per-query LBD table (the refinement kernel)

	kn     KNNCollector
	set    *queue.Set[*node]
	resBuf []Result

	// scratch is the block-kernel scratch, one per drain worker: parallel
	// drains share this Searcher across worker goroutines, and worker w
	// refines into scratch[w]. The serial paths (the seeding stage and
	// single-worker drains) use scratch[0].
	scratch []drainScratch

	// Shard-query state, set by beginShard at the start of every search.
	// A stand-alone Search points extKN at the searcher's own collector with
	// the identity id mapping; a collection-level shard search points it at
	// the shared cross-shard collector and maps the tree's local ids to
	// public ids at offer time — through the pub table when the collection
	// has been mutated, or affinely (global = local*idMul + idAdd, the
	// inverse of round-robin partitioning) while ids are still dense — so all
	// shards of a sharded index prune against one global best-so-far.
	extKN      *KNNCollector
	pub        []int32
	idMul      ID
	idAdd      ID
	pruneScale float64
	approxNode *node
	seeded     bool

	// serial forces single-threaded query answering (no goroutine fan-out),
	// so a caller's inter-query parallelism is not multiplied by intra-query
	// parallelism (see NewSerialSearcher).
	serial bool

	// stats for the last Search call (atomic: workers update concurrently).
	nodesVisited  atomic.Int64
	leavesRefined atomic.Int64
	seriesLBD     atomic.Int64
	seriesED      atomic.Int64
}

// SearchStats reports how much work the last Search call did — the paper's
// pruning-power discussion (Section V-E) in concrete counter form.
type SearchStats struct {
	NodesVisited  int64 // tree nodes whose lower bound was evaluated
	LeavesRefined int64 // leaves popped from the priority queues
	SeriesLBD     int64 // per-series word lower bounds computed
	SeriesED      int64 // real (early-abandoning) distances computed
}

// LastStats returns the work counters of the most recent Search call.
func (s *Searcher) LastStats() SearchStats {
	return SearchStats{
		NodesVisited:  s.nodesVisited.Load(),
		LeavesRefined: s.leavesRefined.Load(),
		SeriesLBD:     s.seriesLBD.Load(),
		SeriesED:      s.seriesED.Load(),
	}
}

// NewSearcher creates a searcher over the tree.
func (t *Tree) NewSearcher() *Searcher {
	return &Searcher{
		t:       t,
		enc:     t.sum.NewIndexEncoder(),
		qbuf:    make([]float64, t.data.Stride),
		qr:      make([]float64, t.l),
		qword:   make([]byte, t.l),
		kern:    kernel{weights: t.sum.Weights(), g: t.gather, l: t.l},
		set:     queue.NewSet[*node](t.opts.Queues),
		scratch: make([]drainScratch, max(t.opts.Workers, 1)),
		idMul:   1,
	}
}

// NewSerialSearcher creates a single-threaded searcher: the query engine
// runs inline with no goroutine fan-out, which is the right building block
// when the caller manages inter-query parallelism itself (the collection's
// batch and streaming engines). A single-threaded searcher gains nothing
// from the multi-queue split (it exists to spread lock contention between
// workers) and loses refinement order across queues; one queue drains leaves
// in global ascending-LBD order, tightening the BSF fastest.
func (t *Tree) NewSerialSearcher() *Searcher {
	s := t.NewSearcher()
	s.serial = true
	s.set = queue.NewSet[*node](1)
	return s
}

// mapID translates a tree-local series id to the id space of the current
// query: the pub table when set (compacted or upserted collections), the
// affine mapping global = local*idMul + idAdd otherwise (the identity for
// stand-alone searches).
func (s *Searcher) mapID(id int32) ID {
	if s.pub != nil {
		return ID(s.pub[id])
	}
	return ID(id)*s.idMul + s.idAdd
}

// Search returns the exact k nearest neighbors of query under squared
// z-normalized Euclidean distance, ascending. The query is z-normalized
// internally (a copy; the argument is not modified).
//
// The returned slice is owned by the Searcher and overwritten by its next
// search call; copy it if the results must outlive the next query.
//
// The pipeline is the paper's Section IV-C: (1) an approximate descent to
// the best-matching leaf seeds the BSF with real distances; (2) workers
// traverse the root subtrees in parallel, pruning against the BSF and
// pushing surviving leaves into priority queues ordered by lower bound;
// (3) workers drain the queues — abandoning a queue once its head exceeds
// the BSF — refining each leaf's contiguous word block with the flat
// per-query distance table and with a real early-abandoning distance only
// when the bound survives.
func (s *Searcher) Search(query []float64, k int) ([]Result, error) {
	return s.search(query, k, 1)
}

// Search1 is a convenience wrapper returning the single nearest neighbor.
func (s *Searcher) Search1(query []float64) (Result, error) {
	res, err := s.Search(query, 1)
	if err != nil {
		return Result{}, err
	}
	return res[0], nil
}

// boundRefreshInterval is how many refined series may share one cached read
// of the global BSF atomic. Within a block the cached bound is only ever an
// over-estimate (the true bound monotonically decreases), so pruning with it
// is conservative and exactness is preserved; the cache is refreshed early
// whenever this worker itself improves the k-NN set.
const boundRefreshInterval = 64

// approximateLeaf descends the tree following the query's own word bits,
// preferring the matching child when it is non-empty, to locate the leaf
// most likely to contain near neighbors.
func (s *Searcher) approximateLeaf() *node {
	t := s.t
	if len(t.rootKeys) == 0 {
		return nil
	}
	key := t.rootKey(s.qword)
	n, ok := t.root[key]
	if !ok {
		// No subtree under the query's key: pick the root child with the
		// smallest node lower bound.
		s.buildTable()
		best := math.Inf(1)
		for _, rk := range t.rootKeys {
			c := t.root[rk]
			if d := s.dt.nodeMinDist(s.qword, c.word, c.cards); d < best {
				best = d
				n = c
			}
		}
	}
	for !n.isLeaf() {
		j := n.split
		childBits := int(n.children[0].cards[j])
		shift := uint(SymbolBits - childBits)
		b := (s.qword[j] >> shift) & 1
		child := n.children[b]
		if child.count == 0 {
			child = n.children[1-b]
		}
		n = child
	}
	return n
}

// buildTable (re)fills the flat per-query LBD table for the current query
// representation: a fresh build costs one l x simd.Alphabet sweep
// (microseconds), a repeat for the same representation is a qr-cache hit.
func (s *Searcher) buildTable() {
	s.kern.qr = s.qr
	s.dt.build(&s.kern)
}

// drainScratch is one drain worker's scratch of the block refinement path:
// the block kernel's two outputs — the members' LBDs and the survivor
// list — its byte table, and the running mean that sizes the walk's row
// prefetch. The buffers grow to the largest leaf seen and are then reused,
// keeping the steady-state query path allocation-free.
type drainScratch struct {
	lbd  []float64
	surv []int32
	fast fastScan

	// edLines is the running mean (rate prefetchRate) of the 64-byte lines
	// this worker's recent EDs read; it starts at zero.
	edLines float64
}

// prefetchAhead is how many survivors ahead of the current ED the walk
// prefetches a row: far enough ahead that the row is in cache when its ED
// starts, near enough that the survivor's LBD test against the current bound
// still predicts whether the ED will run.
const prefetchAhead = 8

// prefetchRate is the weight of the newest ED in drainScratch.edLines, so
// the prefetch depth follows how far EDs get into a row within a few dozen
// EDs rather than jumping with each one.
const prefetchRate = 1.0 / 16

// prefetchSlackLines is what the prefetch depth adds to the mean read: one
// 16-element ED block (two 64-byte lines), the granularity EDs read at.
const prefetchSlackLines = 2

// forLeaf returns the kernel's output buffers for a leaf of n series.
func (ds *drainScratch) forLeaf(n int) ([]float64, []int32) {
	if cap(ds.lbd) < n {
		ds.lbd = make([]float64, n)
		ds.surv = make([]int32, n)
	}
	return ds.lbd[:n], ds.surv[:n]
}

// processLeafApprox seeds the BSF from the query's best-matching leaf: one
// kernel call bounds every member of the seed leaf, and real distances are
// then computed only for the survivors it lists — members whose lower bound
// beats the current BSF. With an empty collector (bound +Inf) everything
// survives and every live member gets a real distance; with a finite bound
// — later shards of a sharded query, warm repeat queries — most of the
// leaf's real distances vanish. Skipping lb >= bound is exact: the true
// distance is >= lb, and the bound only ever decreases, so such a candidate
// could never enter the k-NN set. The seeding stage stays uncounted in
// SearchStats either way.
func (s *Searcher) processLeafApprox(leaf *node, q []float64, kn *KNNCollector) {
	s.walkSurvivors(leaf, q, kn, 1, &s.scratch[0])
}

// walkSurvivors bounds a whole leaf with one block kernel call and computes
// real distances for the listed survivors only, returning how many it
// computed. The cached bound is re-read when the walk enters another
// boundRefreshInterval-sized block of the leaf (and whenever this worker
// improves the k-NN set) — the cadence of a walk over every member, so the
// pruning decisions, results and counters are those of such a walk. A
// survivor's exact LBD is tested again, against the fresher bound; the
// series the kernel dropped already exceed the older, larger one.
//
// Before the ED of survivor p the walk prefetches the row of survivor
// p+prefetchAhead, if that survivor's LBD still beats the bound, to the depth
// recent EDs read plus one block. The prefetch is a hint that changes no
// decision, so answers and counters are those of a walk without it.
func (s *Searcher) walkSurvivors(leaf *node, q []float64, kn *KNNCollector, scale float64, ds *drainScratch) (nED int64) {
	n := len(leaf.ids)
	if n == 0 {
		return 0
	}
	lbd, surv := ds.forLeaf(n)
	bound := kn.Bound()
	surv = surv[:s.dt.minDistBlockEA(leaf.words, n, lbd, bound*scale, surv, &ds.fast)]
	t := s.t
	dead := t.dead
	block := 0
	for p, i := range surv {
		if b := int(i) / boundRefreshInterval; b != block {
			block = b
			bound = kn.Bound()
		}
		if a := p + prefetchAhead; a < len(surv) {
			if next := surv[a]; lbd[next] < bound*scale {
				simd.Prefetch(t.data.Row(int(leaf.ids[next])), int(ds.edLines)+prefetchSlackLines)
			}
		}
		id := leaf.ids[i]
		if lbd[i] >= bound*scale || deadBit(dead, id) {
			continue
		}
		nED++
		// The row and the prepared query both have the tree's stride: the
		// length check distance.SquaredEDEarlyAbandon makes holds here.
		d, read := simd.SquaredEDEARead(t.data.Row(int(id)), q, bound)
		ds.edLines += (float64((read+7)/8) - ds.edLines) * prefetchRate
		if d < bound && kn.Offer(s.mapID(id), d) {
			bound = kn.Bound()
		}
	}
	return nED
}
