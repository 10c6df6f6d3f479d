package index

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/distance"
	"repro/internal/faultinject"
)

// This file implements the shared query engine plus the approximate-search
// modes the paper lists as future work (Section VI), following the semantics
// established for the iSAX family (Echihabi et al., "Return of the Lernaean
// Hydra"):
//
//   - SearchApproximate: the classical iSAX approximate search — visit only
//     the single most promising leaf and return its best candidates. No
//     guarantee, but empirically high recall at a tiny fraction of the
//     exact cost (it is stage 1 of the exact algorithm).
//   - SearchEpsilon: ε-bounded search — exact machinery, but nodes and
//     series are pruned against bound/(1+ε)². Every returned distance is
//     guaranteed within a factor (1+ε) of the true k-NN distance, and
//     ε = 0 degenerates to exact search.

// prepareQuery z-normalizes the query into the searcher's scratch buffer and
// computes its representation and word. No allocations in steady state.
func (s *Searcher) prepareQuery(query []float64, k int) ([]float64, error) {
	t := s.t
	if len(query) != t.data.Stride {
		return nil, fmt.Errorf("index: query length %d, want %d", len(query), t.data.Stride)
	}
	if k < 1 {
		return nil, fmt.Errorf("index: k must be >= 1, got %d", k)
	}
	copy(s.qbuf, query)
	distance.ZNormalize(s.qbuf)
	if _, err := s.enc.QueryRepr(s.qbuf, s.qr); err != nil {
		return nil, err
	}
	if _, err := s.enc.Word(s.qbuf, s.qword); err != nil {
		return nil, err
	}
	return s.qbuf, nil
}

// finishResults snapshots the collector into the searcher-owned result
// buffer (sorted ascending) and returns it.
func (s *Searcher) finishResults() []Result {
	s.resBuf = s.kn.ResultsAppend(s.resBuf[:0])
	return s.resBuf
}

// SearchApproximate returns up to k approximate nearest neighbors from the
// query's best-matching leaf only, in ascending distance order. The answer
// is a valid upper bound on the true k-NN distances. Like Search, the
// returned slice is owned by the Searcher and reused by its next call.
func (s *Searcher) SearchApproximate(query []float64, k int) ([]Result, error) {
	s.kn.Reset(k)
	if err := s.beginShard(query, k, &s.kn, nil, 1, 0, 1); err != nil {
		return nil, err
	}
	s.seeded = false // approximate mode: the seeding stage is the whole query
	return s.finishResults(), nil
}

// SearchEpsilon returns k neighbors whose distances are each within a
// (1+epsilon) factor of the corresponding exact k-NN distance (in the
// squared domain the guarantee is (1+epsilon)²). epsilon = 0 is exact
// search. Larger epsilon prunes more aggressively and runs faster.
func (s *Searcher) SearchEpsilon(query []float64, k int, epsilon float64) ([]Result, error) {
	if epsilon < 0 {
		return nil, fmt.Errorf("index: epsilon must be >= 0, got %v", epsilon)
	}
	return s.search(query, k, 1/((1+epsilon)*(1+epsilon)))
}

// search is the shared engine: pruneScale multiplies the BSF before every
// pruning comparison (1.0 = exact). A node or series is skipped when its
// lower bound is >= bound*pruneScale; any skipped candidate therefore has
// true distance >= bound*pruneScale, i.e. the reported answers are within
// 1/pruneScale of optimal in the squared domain.
//
// All per-query state lives in Searcher scratch. With one worker (or a
// serial searcher) the engine runs inline — no goroutines, no WaitGroups —
// and performs zero heap allocations in steady state.
//
// The engine runs in two phases shared with the collection-level sharded
// search (see SeedShard/FinishShard): beginShard prepares the query and
// seeds the collector with real distances from the best-matching leaf;
// finishShard traverses the tree and refines the surviving leaves.
func (s *Searcher) search(query []float64, k int, pruneScale float64) ([]Result, error) {
	s.kn.Reset(k)
	if err := s.beginShard(query, k, &s.kn, nil, 1, 0, pruneScale); err != nil {
		return nil, err
	}
	if faultinject.Enabled {
		if err := faultinject.Hook(faultinject.SiteKernel); err != nil {
			return nil, err
		}
	}
	s.finishShard()
	return s.finishResults(), nil
}

// beginShard is the first engine phase: it prepares the query (normalization,
// representation, word, flat distance table), resets the work counters,
// records the shard-query state (collector, id mapping, prune scale) and
// seeds kn with real distances from the query's best-matching leaf.
// kn must have been Reset with this query's k by the caller.
func (s *Searcher) beginShard(query []float64, k int, kn *KNNCollector, pub []int32, idMul, idAdd ID, pruneScale float64) error {
	q, err := s.prepareQuery(query, k)
	if err != nil {
		return err
	}
	s.nodesVisited.Store(0)
	s.leavesRefined.Store(0)
	s.seriesLBD.Store(0)
	s.seriesED.Store(0)

	s.extKN = kn
	s.pub = pub
	s.idMul = idMul
	s.idAdd = idAdd
	s.pruneScale = pruneScale
	s.approxNode = s.approximateLeaf()
	if s.approxNode != nil {
		// The flat table must exist before the seed leaf's block LBD
		// prefilter, which pays the build back whenever the collector already
		// carries a finite bound (later shards, hot queries).
		s.buildTable()
		s.processLeafApprox(s.approxNode, q, kn)
	}
	s.seeded = true
	return nil
}

// finishShard is the second engine phase: tree traversal (pruning against
// the collector recorded by beginShard) and priority-queue leaf refinement.
func (s *Searcher) finishShard() {
	t := s.t
	kn := s.extKN
	scale := s.pruneScale
	approx := s.approxNode
	q := s.qbuf
	s.seeded = false

	// The descent and the refinement both read the flat LBD table. beginShard
	// already built it for the seed prefilter unless the tree had no leaf to
	// seed from, so this is normally a qr-cache hit.
	s.buildTable()

	workers := t.opts.Workers
	if s.serial {
		workers = 1
	}
	set := s.set
	set.Reset()

	if workers == 1 {
		for _, rk := range t.rootKeys {
			s.traverseScaled(t.root[rk], kn, approx, scale)
		}
		s.drainScaled(0, q, kn, scale, &s.scratch[0])
		return
	}

	// Workers forward panics (value + stack) to this goroutine, which
	// re-panics after the join: a panic below otherwise kills the process
	// (recover only works on the panicking goroutine), and the collection
	// layer's shard recovery sits above this frame. The pointer lives on the
	// parallel path only, so the serial path stays allocation-free.
	var wp atomic.Pointer[WorkerPanic]
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer trapPanic(&wp)
			for {
				i := int(cursor.Add(1) - 1)
				if i >= len(t.rootKeys) {
					return
				}
				s.traverseScaled(t.root[t.rootKeys[i]], kn, approx, scale)
			}
		}()
	}
	wg.Wait()
	rethrow(&wp)

	var wg2 sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg2.Add(1)
		go func(w int) {
			defer wg2.Done()
			defer trapPanic(&wp)
			s.drainScaled(w%set.Size(), q, kn, scale, &s.scratch[w])
		}(w)
	}
	wg2.Wait()
	rethrow(&wp)
}

func (s *Searcher) traverseScaled(n *node, kn *KNNCollector, skip *node, scale float64) {
	if n.count == 0 || n == skip {
		return
	}
	s.nodesVisited.Add(1)
	d := s.dt.nodeMinDist(s.qword, n.word, n.cards)
	if d >= kn.Bound()*scale {
		return
	}
	if n.isLeaf() {
		s.set.PushRoundRobin(n, d)
		return
	}
	s.traverseScaled(n.children[0], kn, skip, scale)
	s.traverseScaled(n.children[1], kn, skip, scale)
}

// drainScaled pops surviving leaves in ascending lower-bound order and
// refines each with ONE block kernel call (minDistBlockEA lists the members
// whose bound beats the BSF in the pooled scratch) followed by a walk over
// only those with real distances. The shared BSF atomic is read once per
// boundRefreshInterval series of the leaf, and re-read early only when this
// worker improves the k-NN set.
func (s *Searcher) drainScaled(start int, q []float64, kn *KNNCollector, scale float64, ds *drainScratch) {
	set := s.set
	for qi := 0; qi < set.Size(); qi++ {
		pq := set.Queue((start + qi) % set.Size())
		for {
			it, ok := pq.PopIfBelow(kn.Bound() * scale)
			if !ok {
				break
			}
			s.leavesRefined.Add(1)
			s.refineLeafBlock(it.Payload, q, kn, scale, ds)
		}
	}
}

// refineLeafBlock is the block-kernel refinement: one kernel call for the
// whole leaf, then a walk over the survivors it lists. The kernel bounds
// every member, tombstoned or not, so all of them count as LBDs.
func (s *Searcher) refineLeafBlock(leaf *node, q []float64, kn *KNNCollector, scale float64, ds *drainScratch) {
	nED := s.walkSurvivors(leaf, q, kn, scale, ds)
	s.seriesLBD.Add(int64(len(leaf.ids)))
	s.seriesED.Add(nED)
}
