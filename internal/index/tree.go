package index

import (
	"fmt"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/distance"
)

// Options configures index construction.
type Options struct {
	// LeafCapacity is the maximum number of series a leaf holds before it
	// splits (the paper's leaf-size parameter; default 1024, the harness
	// sweeps it for Fig. 11).
	LeafCapacity int
	// Workers is the parallelism for build and query (default GOMAXPROCS).
	Workers int
	// Queues is the number of priority queues used during query answering
	// (default = Workers, matching the paper's setup).
	Queues int
}

func (o Options) withDefaults() Options {
	if o.LeafCapacity == 0 {
		o.LeafCapacity = 1024
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Queues == 0 {
		o.Queues = o.Workers
	}
	return o
}

// node is a tree node. Inner nodes have split >= 0 and two children; leaves
// have split == -1 and hold series ids.
type node struct {
	word  []byte  // per-position symbol prefixes (right-aligned)
	cards []uint8 // per-position prefix widths in bits
	depth int

	split    int // split position; -1 for leaves
	children [2]*node

	ids []int32 // leaf payload
	// words is the leaf's refinement block: the members' full-cardinality
	// words copied contiguously (len(ids) x l, row i belongs to ids[i]), so
	// the refinement loop streams sequential memory instead of gathering
	// t.words[id*l:] per series. The global t.words buffer remains the
	// source of truth; blocks are filled when leaves are finalized during
	// build and maintained through splits and inserts.
	words   []byte
	count   int32 // series in this subtree
	noSplit bool  // leaf whose remaining words are all identical
}

func (n *node) isLeaf() bool { return n.split < 0 }

// Tree is the MESSI-style index over an in-memory, z-normalized series
// matrix. It is immutable (and safe for concurrent queries) after Build.
type Tree struct {
	sum  Summarization
	opts Options
	data *distance.Matrix
	// words holds every series' full-cardinality word, row-major (N x l).
	words    []byte
	l        int
	maxBits  int
	rootBits int // number of word positions contributing to the root key
	root     map[uint64]*node
	rootKeys []uint64
	gather   *gatherTables

	// dead is the tombstone bitmap (bit id set = series id is deleted) and
	// deadCount its population count. A tombstoned series stays in the data
	// matrix, the word buffer and its leaf — removing it would renumber every
	// id — but the refinement loops skip it before any offer, so it can never
	// reach a result set. The bitmap grows lazily to the highest deleted id;
	// nil means nothing is deleted and costs the hot path one length test.
	// Delete follows the Insert concurrency contract (not safe concurrently
	// with searches); reclaiming the dead rows is the collection layer's
	// compaction, which rebuilds the shard from its survivors.
	dead      []uint64
	deadCount int

	// splits counts successful leaf splits over the tree's lifetime (build,
	// inserts). A tree decoded via FromShape performs none — the direct-decode
	// guarantee tests pin with SplitCount.
	splits atomic.Int64

	// BuildBreakdown records the two build phases for Fig. 7.
	TransformSeconds float64
	TreeSeconds      float64
}

// newTree validates the constructor contract shared by Build,
// BuildFromWords and FromShape, and allocates the tree skeleton they fill.
// words is the full-cardinality word matrix to retain (row-major,
// data.Len() x segments); nil allocates an empty one for Build to compute
// into.
func newTree(data *distance.Matrix, sum Summarization, opts Options, words []byte) (*Tree, error) {
	if data == nil || data.Len() == 0 {
		return nil, fmt.Errorf("index: cannot build over empty data")
	}
	o := opts.withDefaults()
	l := sum.Segments()
	if l > 64 {
		return nil, fmt.Errorf("index: word length %d exceeds 64 (root fan-out key)", l)
	}
	if o.LeafCapacity < 1 {
		return nil, fmt.Errorf("index: leaf capacity must be >= 1, got %d", o.LeafCapacity)
	}
	if words == nil {
		words = make([]byte, data.Len()*l)
	} else if len(words) != data.Len()*l {
		return nil, fmt.Errorf("index: words length %d, want %d", len(words), data.Len()*l)
	}
	return &Tree{
		sum:      sum,
		opts:     o,
		data:     data,
		words:    words,
		l:        l,
		maxBits:  sum.MaxBits(),
		rootBits: rootFanoutBits(data.Len(), o.LeafCapacity, l),
		root:     make(map[uint64]*node),
		gather:   newGatherTables(sum),
	}, nil
}

// Build constructs the index over data (which must already be z-normalized;
// Build does not modify it) using the given summarization.
func Build(data *distance.Matrix, sum Summarization, opts Options) (*Tree, error) {
	t, err := newTree(data, sum, opts, nil)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := t.buildWords(); err != nil {
		return nil, err
	}
	t.TransformSeconds = time.Since(start).Seconds()
	start = time.Now()
	t.buildTree()
	t.TreeSeconds = time.Since(start).Seconds()
	return t, nil
}

// buildWords is build phase one: transform every series into its word, in
// parallel over deterministic chunk assignments, and bucket series ids by
// their root key (the vector of per-position top bits).
func (t *Tree) buildWords() error {
	n := t.data.Len()
	workers := t.opts.Workers
	if workers > n {
		workers = n
	}
	chunk := (n + workers*8 - 1) / (workers * 8)
	if chunk < 1 {
		chunk = 1
	}
	numChunks := (n + chunk - 1) / chunk

	buffers := make([]map[uint64][]int32, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			enc := t.sum.NewIndexEncoder()
			buf := make(map[uint64][]int32)
			buffers[w] = buf
			for c := w; c < numChunks; c += workers {
				lo := c * chunk
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					word := t.words[i*t.l : (i+1)*t.l]
					if _, err := enc.Word(t.data.Row(i), word); err != nil {
						errs[w] = err
						return
					}
					key := t.rootKey(word)
					buf[key] = append(buf[key], int32(i))
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	// Merge per-worker buffers in worker order (deterministic for a fixed
	// worker count).
	merged := make(map[uint64][]int32)
	for _, buf := range buffers {
		for k, ids := range buf {
			merged[k] = append(merged[k], ids...)
		}
	}
	t.rootKeys = make([]uint64, 0, len(merged))
	for k := range merged {
		t.rootKeys = append(t.rootKeys, k)
	}
	sort.Slice(t.rootKeys, func(a, b int) bool { return t.rootKeys[a] < t.rootKeys[b] })
	for _, k := range t.rootKeys {
		t.root[k] = t.newRootChild(k, merged[k])
	}
	return nil
}

// rootFanoutBits sizes the root fan-out to the collection: the classic iSAX
// root uses one bit from every position (2^l children), which is right for
// the paper's 10⁸-series datasets but shreds small collections into
// single-series subtrees. We use ceil(log2(n/leafCapacity)) bits (clamped to
// [1, l]), which approaches the paper's layout as n grows and keeps root
// children near leaf capacity for small n.
func rootFanoutBits(n, leafCapacity, l int) int {
	target := n / leafCapacity
	bits := 1
	for bits < l && 1<<bits < target {
		bits++
	}
	return bits
}

// rootKey packs the top bit of the first rootBits positions' symbols into
// the root key. Positions are in word order, which for SFA is descending
// variance — the most discriminative values shape the fan-out.
func (t *Tree) rootKey(word []byte) uint64 {
	var key uint64
	top := uint(t.maxBits - 1)
	for j := 0; j < t.rootBits; j++ {
		key |= uint64((word[j]>>top)&1) << uint(j)
	}
	return key
}

// newRootChild creates the subtree root for a root key: the first rootBits
// positions carry one bit of prefix, the rest are unconstrained (cards 0).
func (t *Tree) newRootChild(key uint64, ids []int32) *node {
	word := make([]byte, t.l)
	cards := make([]uint8, t.l)
	for j := 0; j < t.rootBits; j++ {
		word[j] = byte((key >> uint(j)) & 1)
		cards[j] = 1
	}
	return &node{word: word, cards: cards, depth: 1, split: -1, ids: ids, count: int32(len(ids))}
}

// buildTree is build phase two: split overfull root subtrees, one worker per
// subtree (no synchronization needed inside a subtree, as in MESSI).
func (t *Tree) buildTree() {
	var cursor atomic.Int64
	var wg sync.WaitGroup
	workers := t.opts.Workers
	if workers > len(t.rootKeys) {
		workers = len(t.rootKeys)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1) - 1)
				if i >= len(t.rootKeys) {
					return
				}
				root := t.root[t.rootKeys[i]]
				t.splitToCapacity(root)
				t.fillLeafBlocks(root)
			}
		}()
	}
	wg.Wait()
}

// fillLeafBlocks walks a finalized subtree and materializes every leaf's
// contiguous refinement block from the global word buffer.
func (t *Tree) fillLeafBlocks(n *node) {
	if n.isLeaf() {
		n.words = t.gatherLeafWords(n.ids)
		return
	}
	t.fillLeafBlocks(n.children[0])
	t.fillLeafBlocks(n.children[1])
}

// gatherLeafWords copies the full-cardinality words of ids from the global
// buffer into a fresh contiguous block. Returns nil for an empty leaf.
func (t *Tree) gatherLeafWords(ids []int32) []byte {
	if len(ids) == 0 {
		return nil
	}
	dst := make([]byte, len(ids)*t.l)
	for i, id := range ids {
		copy(dst[i*t.l:(i+1)*t.l], t.words[int(id)*t.l:(int(id)+1)*t.l])
	}
	return dst
}

// splitToCapacity recursively splits a subtree until every leaf fits its
// capacity (or cannot be split further).
func (t *Tree) splitToCapacity(n *node) {
	if n.isLeaf() {
		if len(n.ids) <= t.opts.LeafCapacity || n.noSplit {
			return
		}
		if !t.split(n) {
			n.noSplit = true
			return
		}
	}
	t.splitToCapacity(n.children[0])
	t.splitToCapacity(n.children[1])
}

// split converts a leaf into an inner node by extending one position's
// prefix by one bit, choosing the position that balances the two children
// best (the iSAX2.0 strategy MESSI inherits). It returns false when no
// position can produce two non-empty children.
func (t *Tree) split(leaf *node) bool {
	bestSeg := -1
	bestScore := int(^uint(0) >> 1) // max int
	size := len(leaf.ids)
	for j := 0; j < t.l; j++ {
		bits := int(leaf.cards[j])
		if bits >= t.maxBits {
			continue
		}
		shift := uint(t.maxBits - bits - 1)
		ones := 0
		for _, id := range leaf.ids {
			ones += int((t.words[int(id)*t.l+j] >> shift) & 1)
		}
		if ones == 0 || ones == size {
			continue // degenerate split
		}
		score := ones*2 - size
		if score < 0 {
			score = -score
		}
		// Prefer balance, then lower cardinality, then lower position.
		if score < bestScore || (score == bestScore && bestSeg >= 0 && leaf.cards[j] < leaf.cards[bestSeg]) {
			bestScore = score
			bestSeg = j
		}
	}
	if bestSeg < 0 {
		return false
	}
	j := bestSeg
	shift := uint(t.maxBits - int(leaf.cards[j]) - 1)
	var kids [2]*node
	for b := 0; b < 2; b++ {
		word := append([]byte(nil), leaf.word...)
		cards := append([]uint8(nil), leaf.cards...)
		word[j] = word[j]<<1 | byte(b)
		cards[j]++
		kids[b] = &node{word: word, cards: cards, depth: leaf.depth + 1, split: -1}
	}
	for _, id := range leaf.ids {
		b := (t.words[int(id)*t.l+j] >> shift) & 1
		kids[b].ids = append(kids[b].ids, id)
	}
	kids[0].count = int32(len(kids[0].ids))
	kids[1].count = int32(len(kids[1].ids))
	if leaf.words != nil {
		// The leaf was already finalized (post-build insert path): give the
		// children their own contiguous blocks. During the initial build
		// blocks are filled once per subtree after splitting settles.
		kids[0].words = t.gatherLeafWords(kids[0].ids)
		kids[1].words = t.gatherLeafWords(kids[1].ids)
	}
	leaf.split = j
	leaf.children = [2]*node{kids[0], kids[1]}
	leaf.ids = nil
	leaf.words = nil
	t.splits.Add(1)
	return true
}

// deadBit reports whether id is tombstoned in dead. The length test doubles
// as the bounds check (a nil or short bitmap means live), keeping the
// refinement loops' skip to one branch in the no-deletes steady state.
func deadBit(dead []uint64, id int32) bool {
	w := int(id) >> 6
	return w < len(dead) && dead[w]&(1<<(uint(id)&63)) != 0
}

// Delete tombstones the series with tree-local id: it is skipped by every
// subsequent refinement pass and excluded from Live. The series' row, word
// and leaf slot are retained (ids are stable); compaction at the collection
// layer reclaims them. Same concurrency contract as Insert: not safe to run
// concurrently with searches or other mutations.
func (t *Tree) Delete(id int32) error {
	if id < 0 || int(id) >= t.data.Len() {
		return fmt.Errorf("index: id %d out of range [0,%d)", id, t.data.Len())
	}
	w, bit := int(id)>>6, uint64(1)<<(uint(id)&63)
	if w >= len(t.dead) {
		grown := make([]uint64, (t.data.Len()+63)/64)
		copy(grown, t.dead)
		t.dead = grown
	}
	if t.dead[w]&bit != 0 {
		return fmt.Errorf("index: id %d already tombstoned", id)
	}
	t.dead[w] |= bit
	t.deadCount++
	return nil
}

// Tombstoned reports whether the series with tree-local id carries a
// tombstone.
func (t *Tree) Tombstoned(id int32) bool { return deadBit(t.dead, id) }

// Live returns the number of live (non-tombstoned) series.
func (t *Tree) Live() int { return t.data.Len() - t.deadCount }

// TombstoneCount returns the number of tombstoned series.
func (t *Tree) TombstoneCount() int { return t.deadCount }

// Tombstones returns the tombstone bitmap (aliased; do not modify) and its
// population count. Used by index persistence and compaction.
func (t *Tree) Tombstones() ([]uint64, int) { return t.dead, t.deadCount }

// SetTombstones installs a loaded tombstone bitmap, validating that every
// set bit names an existing series and that count matches the population.
// Used by the persistence loader.
func (t *Tree) SetTombstones(dead []uint64, count int) error {
	n := t.data.Len()
	if len(dead) > (n+63)/64 {
		return fmt.Errorf("index: tombstone bitmap has %d words, want at most %d", len(dead), (n+63)/64)
	}
	pop := 0
	for w, word := range dead {
		pop += bits.OnesCount64(word)
		if word != 0 {
			if hi := w*64 + 63 - bits.LeadingZeros64(word); hi >= n {
				return fmt.Errorf("index: tombstone bit %d out of range [0,%d)", hi, n)
			}
		}
	}
	if pop != count {
		return fmt.Errorf("index: tombstone count %d != bitmap population %d", count, pop)
	}
	t.dead = dead
	t.deadCount = count
	return nil
}

// SplitCount reports how many leaf splits the tree has performed since it
// was created — the test hook behind the persistence contract that a
// shape-decoded load (FromShape) re-splits nothing.
func (t *Tree) SplitCount() int64 { return t.splits.Load() }

// Len returns the number of indexed series.
func (t *Tree) Len() int { return t.data.Len() }

// SeriesLen returns the length of each indexed series.
func (t *Tree) SeriesLen() int { return t.data.Stride }

// Stats summarizes the index structure (paper Fig. 8).
type Stats struct {
	Series      int     // physical rows, live and tombstoned
	Live        int     // series a search can return
	Tombstoned  int     // deleted series awaiting compaction
	Subtrees    int     // number of root children
	Leaves      int     // non-empty leaves
	AvgDepth    float64 // mean depth of non-empty leaves (root = depth 0)
	MaxDepth    int
	AvgLeafSize float64 // mean series per non-empty leaf
}

// Stats walks the tree and reports its structure.
func (t *Tree) Stats() Stats {
	st := Stats{
		Series:     t.data.Len(),
		Live:       t.data.Len() - t.deadCount,
		Tombstoned: t.deadCount,
		Subtrees:   len(t.rootKeys),
	}
	var depthSum, sizeSum int
	var walk func(n *node)
	walk = func(n *node) {
		if n.isLeaf() {
			if len(n.ids) == 0 {
				return
			}
			st.Leaves++
			depthSum += n.depth
			sizeSum += len(n.ids)
			if n.depth > st.MaxDepth {
				st.MaxDepth = n.depth
			}
			return
		}
		walk(n.children[0])
		walk(n.children[1])
	}
	for _, k := range t.rootKeys {
		walk(t.root[k])
	}
	if st.Leaves > 0 {
		st.AvgDepth = float64(depthSum) / float64(st.Leaves)
		st.AvgLeafSize = float64(sizeSum) / float64(st.Leaves)
	}
	return st
}

// BuildFromWords constructs the index over data whose full-cardinality
// words were already computed: it skips the (expensive) summarization
// transform and only re-buckets and re-splits, which is deterministic given
// the words and options. words is row-major (data.Len() x sum.Segments())
// and is retained by the tree. No library path calls it today — container
// loads decode the saved shape (FromShape) instead. It stays because
// benchmark/ times it as index.build_from_words_s, and because a compaction
// that does not re-learn could rebuild from its survivors' words through it
// (ROADMAP 4a).
func BuildFromWords(data *distance.Matrix, sum Summarization, opts Options, words []byte) (*Tree, error) {
	if words == nil {
		return nil, fmt.Errorf("index: words must not be nil")
	}
	t, err := newTree(data, sum, opts, words)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	buckets := make(map[uint64][]int32)
	for i := 0; i < data.Len(); i++ {
		key := t.rootKey(t.words[i*t.l : (i+1)*t.l])
		buckets[key] = append(buckets[key], int32(i))
	}
	t.rootKeys = make([]uint64, 0, len(buckets))
	for k := range buckets {
		t.rootKeys = append(t.rootKeys, k)
	}
	sort.Slice(t.rootKeys, func(a, b int) bool { return t.rootKeys[a] < t.rootKeys[b] })
	for _, k := range t.rootKeys {
		t.root[k] = t.newRootChild(k, buckets[k])
	}
	t.buildTree()
	t.TreeSeconds = time.Since(start).Seconds()
	return t, nil
}

// Words returns the full-cardinality word matrix (row-major, aliased; do
// not modify). Used by index persistence.
func (t *Tree) Words() []byte { return t.words }

// Encoder returns a fresh per-goroutine encoder for the tree's
// summarization (used by Insert callers).
func (t *Tree) Encoder() Encoder { return t.sum.NewIndexEncoder() }

// Sum returns the tree's summarization. A compacted shard that re-learned
// its quantization carries its own; the collection's certificate path uses
// this to compute shard-correct query representations.
func (t *Tree) Sum() Summarization { return t.sum }

// Data returns the tree's underlying series matrix (aliased; do not
// modify). Compaction snapshots survivor rows from it.
func (t *Tree) Data() *distance.Matrix { return t.data }
