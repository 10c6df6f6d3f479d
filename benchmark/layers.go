package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/distance"
	"repro/internal/fft"
	"repro/internal/flat"
	"repro/internal/index"
	"repro/internal/queue"
	"repro/internal/sax"
	"repro/internal/scan"
	"repro/internal/sfa"
	"repro/internal/simd"
	"repro/sofa"
)

// The traced pass: per-layer metrics measured from outside, by timing calls
// into each layer's exported functions on one goroutine (serial searchers),
// with a span around every call and the layer's own counters read at the
// same boundary. Nothing inside the query path is instrumented, so the
// per-query budget is closed by arithmetic: index.search_ns is measured, the
// z-normalisation and query representation are measured on the same
// queries, LBD and ED time are the query's own counts times unit costs
// measured on the index's own words and rows, and index.self_ns is the rest.

// sfaSum and saxSum plug the two quantizers into internal/index exactly as
// internal/core does.
type sfaSum struct{ *sfa.Quantizer }

func (s sfaSum) NewIndexEncoder() index.Encoder { return s.NewTransformer() }

type saxSum struct{ *sax.Quantizer }

func (s saxSum) NewIndexEncoder() index.Encoder { return s.NewEncoder() }

const (
	leafBlock    = 1024 // rows per block-kernel call: the index's default leaf capacity
	kernelQ      = 16   // queries given to the kernel micro-measurements
	kernelRows   = 20_000
	insertSample = 2000
	fsyncSample  = 200
	coeffs       = 16 // sfa.Options' default MaxCoeffs: what a Transformer asks of fft
)

// traced holds the state shared by the traced pass's sections.
type traced struct {
	in   *inputs
	o    options
	tr   *tracer
	root int
	v    values
	t    tally
	ctx  context.Context
	nq   int // queries of the traced pass
	rng  *rand.Rand

	quant *sfa.Quantizer
	sum   sfaSum
	tree  *index.Tree

	ser *index.Searcher // the serial tree searcher of the traced pass

	// Per traced query, from the serial tree searcher.
	searchNs []float64
	answers  [][]index.Result
	zq       [][]float64 // z-normalized queries
	qr       [][]float64 // their SFA representations

	// Sums over the kernel queries, each term timed back to back with the
	// others: the search itself, and its LBD and ED counts times unit costs.
	budgetSearchNs, budgetLBDNs, budgetEDNs float64
}

func runTraced(in *inputs, o options) (values, tally, error) {
	x := &traced{
		in: in, o: o, tr: newTracer(), ctx: context.Background(),
		v:   values{"dataset.generate_s": in.generateS},
		nq:  min(in.w.TraceQ, in.queries.Len()),
		rng: rand.New(rand.NewSource(in.seed ^ 0x7ACE)),
	}
	var t0 time.Time
	x.root, t0 = x.tr.begin("workload."+in.w.Name, 0, -1)
	sections := []func() error{x.buildTree, x.queryPass, x.kernels, x.budget, x.baselines, x.collections}
	if in.w.OpsPerSec > 0 {
		sections = append(sections, x.inserts, x.lifecycle)
	} else {
		// A workload that never writes has no write path to measure.
		for _, name := range writePathMetrics {
			x.v[name] = 0
		}
	}
	for _, section := range sections {
		runtime.GC()
		if err := section(); err != nil {
			return nil, x.t, err
		}
	}
	x.tr.end(x.root, t0)
	return x.v, x.t, x.tr.write(filepath.Join(o.outDir, "trace-"+in.w.Name+".json"))
}

// phase opens a span directly under the workload's root.
func (x *traced) phase(name string) (int, time.Time) { return x.tr.begin(name, x.root, -1) }

// buildTree learns the quantization and builds the single tree the index.*
// metrics describe — what core.Build does for one shard.
func (x *traced) buildTree() error {
	id, t0 := x.phase("sfa.learn")
	q, err := sfa.Learn(x.in.data, sfa.Options{})
	if err != nil {
		return err
	}
	x.v["sfa.learn_s"] = x.tr.end(id, t0).Seconds()
	x.v["sfa.mean_coeff_index"] = q.MeanCoefficientIndex()
	x.quant, x.sum = q, sfaSum{q}

	opts := index.Options{Workers: nproc}
	id, t0 = x.phase("index.build")
	if x.tree, err = index.Build(x.in.data, x.sum, opts); err != nil {
		return err
	}
	x.tr.end(id, t0)
	st := x.tree.Stats()
	x.v["index.leaves"], x.v["index.avg_depth"] = float64(st.Leaves), st.AvgDepth

	id, t0 = x.phase("index.build_from_words")
	_, err = index.BuildFromWords(x.in.data, x.sum, opts, x.tree.Words())
	x.v["index.build_from_words_s"] = x.tr.end(id, t0).Seconds()
	return err
}

// queryPass answers the traced queries on the serial tree searcher, one span
// per call, and records the searcher's own counters after each.
func (x *traced) queryPass() error {
	var (
		ser                        = x.tree.NewSerialSearcher()
		enc                        = x.quant.NewTransformer()
		znorm, repr, k1, approx    []float64
		nodes, leaves, lbd, ed, tg float64
	)
	x.ser = ser
	pass, passT := x.phase("pass.index")
	for i := 0; i < x.nq; i++ {
		q := x.in.queries.Row(i)
		if i == 0 { // fill the searcher's tables and queues, untimed
			if _, err := ser.Search(q, kNN); err != nil {
				return err
			}
		}
		op, opT := x.tr.begin("query", pass, i)

		zq := append([]float64(nil), q...)
		id, t0 := x.tr.begin("distance.znorm", op, i)
		distance.ZNormalize(zq)
		znorm = append(znorm, ns(x.tr.end(id, t0)))

		qr := make([]float64, x.quant.Segments())
		id, t0 = x.tr.begin("sfa.query_repr", op, i)
		_, err := enc.QueryRepr(zq, qr)
		repr = append(repr, ns(x.tr.end(id, t0)))
		if err != nil {
			return err
		}

		id, t0 = x.tr.begin("index.search", op, i)
		res, err := ser.Search(q, kNN)
		x.searchNs = append(x.searchNs, ns(x.tr.end(id, t0)))
		x.t.ok(err == nil && len(res) == kNN, "traced query %d: %d results, err %v", i, len(res), err)
		if err != nil {
			return err
		}
		st := ser.LastStats()
		nodes, leaves = nodes+float64(st.NodesVisited), leaves+float64(st.LeavesRefined)
		lbd, ed = lbd+float64(st.SeriesLBD), ed+float64(st.SeriesED)
		x.answers = append(x.answers, append([]index.Result(nil), res...))
		x.zq, x.qr = append(x.zq, zq), append(x.qr, qr)

		id, t0 = x.tr.begin("index.search.k1", op, i)
		_, err = ser.Search(q, 1)
		k1 = append(k1, ns(x.tr.end(id, t0)))
		x.t.err(err, "traced k=1 query")

		id, t0 = x.tr.begin("index.approx_seed", op, i)
		seed, err := ser.SearchApproximate(q, kNN)
		approx = append(approx, ns(x.tr.end(id, t0)))
		x.t.err(err, "traced approximate query")
		if len(seed) == kNN && seed[kNN-1].Dist > 0 {
			tg += x.kth(i) / seed[kNN-1].Dist
		}
		x.tr.end(op, opT)
	}
	x.tr.end(pass, passT)

	n, rows := float64(x.nq), float64(x.in.data.Len())
	x.v["distance.znorm_ns"], x.v["sfa.query_repr_ns"] = mean(znorm), mean(repr)
	x.v["index.search_ns"], x.v["index.search_ns.k1"] = mean(x.searchNs), mean(k1)
	x.v["index.approx_seed_ns"], x.v["index.approx_seed_tightness"] = mean(approx), tg/n
	x.v["index.nodes_visited_per_query"], x.v["index.leaves_refined_per_query"] = nodes/n, leaves/n
	x.v["index.series_lbd_per_query"], x.v["index.series_ed_per_query"] = lbd/n, ed/n
	x.v["index.leaf_prune_ratio"] = 1 - lbd/n/rows
	x.v["index.lbd_prune_ratio"] = 1 - ed/max(lbd, 1)
	return nil
}

// kth is traced query i's true k-th distance.
func (x *traced) kth(i int) float64 { return x.answers[i][len(x.answers[i])-1].Dist }

func ns(d time.Duration) float64 { return float64(d.Nanoseconds()) }

// kernels measures the unit costs of the layers the query path is made of,
// on the index's own words and rows, for the first kernelQ traced queries.
// Each query is also searched again here, so that the budget compares a
// search with unit costs taken in the same second: this host changes speed
// by a quarter from one minute to the next.
func (x *traced) kernels() error {
	var (
		data, words = x.in.data, x.tree.Words()
		n, l        = data.Len(), x.quant.Segments()
		lower, up   = gatherTables(x.sum)
		alpha       = 1 << x.quant.MaxBits()
		out         = make([]float64, leafBlock)
		phase, pT   = x.phase("pass.kernels")
		sample      = make([]int, min(kernelRows, n))

		lookupNs, gatherNs, survivors, fullNs, abandonNs, offerNs []float64
	)
	timed := func(name string, op int, f func()) float64 {
		id, t0 := x.tr.begin(name, phase, op)
		f()
		return ns(x.tr.end(id, t0))
	}
	blocks := func(kernel func(w []byte, n int) int) (surv int) {
		for lo := 0; lo < n; lo += leafBlock {
			rows := min(leafBlock, n-lo)
			surv += kernel(words[lo*l:(lo+rows)*l], rows)
		}
		return surv
	}
	for qi := 0; qi < min(kernelQ, x.nq); qi++ {
		zq, qr, kth := x.zq[qi], x.qr[qi], x.kth(qi)
		table := distTable(x.sum, qr, lower, up)
		var err error
		searchNs := timed("index.search", qi, func() { _, err = x.ser.Search(x.in.queries.Row(qi), kNN) })
		if err != nil {
			return err
		}
		st := x.ser.LastStats()
		var surv int
		d := timed("simd.lookup_block", qi, func() {
			surv = blocks(func(w []byte, rows int) int {
				return simd.LookupAccumBlockEA(w, rows, table, alpha, out, kth)
			})
		})
		lookupNs, survivors = append(lookupNs, d/float64(n)), append(survivors, float64(surv)/float64(n))
		var gsurv int
		d = timed("simd.gather_block", qi, func() {
			gsurv = blocks(func(w []byte, rows int) int {
				return simd.LBDGatherBlockEA(w, rows, qr, lower, up, x.quant.Weights(), alpha, out, kth)
			})
		})
		gatherNs = append(gatherNs, d/float64(n))
		x.t.ok(gsurv == surv, "kernel query %d: gather kernel keeps %d series, lookup kernel %d", qi, gsurv, surv)

		// The rows an exact search must refine: those whose lower bound
		// survives the true k-th distance.
		var must []int
		for lo := 0; lo < n && len(must) < kernelRows; lo += leafBlock {
			rows := min(leafBlock, n-lo)
			simd.LookupAccumBlockEA(words[lo*l:(lo+rows)*l], rows, table, alpha, out, kth)
			for j, b := range out[:rows] {
				if b <= kth {
					must = append(must, lo+j)
				}
			}
		}
		for j := range sample {
			sample[j] = x.rng.Intn(n)
		}
		dists := make([]float64, len(sample))
		d = timed("distance.sq_ed_full", qi, func() {
			for j, r := range sample {
				dists[j] = distance.SquaredEDEarlyAbandon(data.Row(r), zq, math.Inf(1))
			}
		})
		fullNs = append(fullNs, d/float64(len(sample)))
		var sink float64
		d = timed("distance.sq_ed_abandon", qi, func() {
			for _, r := range must {
				sink += distance.SquaredEDEarlyAbandon(data.Row(r), zq, kth)
			}
		})
		abandonNs = append(abandonNs, d/float64(len(must)))
		x.budgetSearchNs += searchNs
		x.budgetLBDNs += float64(st.SeriesLBD) * lookupNs[qi]
		x.budgetEDNs += float64(st.SeriesED) * abandonNs[qi]
		x.t.ok(len(must) >= kNN && !math.IsNaN(sink), "kernel query %d: only %d series survive their own k-th distance", qi, len(must))

		kn := index.NewKNNCollector(kNN)
		d = timed("index.collector_offer", qi, func() {
			for j, dist := range dists {
				kn.Offer(index.ID(j), dist)
			}
		})
		offerNs = append(offerNs, d/float64(len(dists)))
	}
	x.v["simd.lookup_block_ns_per_series"], x.v["simd.gather_block_ns_per_series"] = mean(lookupNs), mean(gatherNs)
	x.v["simd.block_survivor_share"] = mean(survivors)
	x.v["distance.sq_ed_full_ns"], x.v["distance.sq_ed_abandon_ns"] = mean(fullNs), mean(abandonNs)
	x.v["index.collector_offer_ns"] = mean(offerNs)

	// Per-series transforms, over a sample of the index's rows.
	rows := sample[:min(len(sample), 5000)]
	perRow := func(name string, f func(row []float64) error) (float64, error) {
		var err error
		d := timed(name, -1, func() {
			for _, r := range rows {
				if err = f(data.Row(r)); err != nil {
					return
				}
			}
		})
		return d / float64(len(rows)), err
	}
	plan, spec := fft.MustPlan(data.Stride), make([]float64, 2*coeffs)
	enc, word := x.quant.NewTransformer(), make([]byte, l)
	sq, err := sax.NewQuantizer(data.Stride, l, x.quant.MaxBits())
	if err != nil {
		return err
	}
	senc, paa := sq.NewEncoder(), make([]float64, l)
	for _, m := range []struct {
		name string
		f    func(row []float64) error
	}{
		{"fft.forward_real", func(r []float64) error { _, err := plan.ForwardReal(r, min(coeffs, data.Stride/2), spec); return err }},
		{"sfa.word", func(r []float64) error { _, err := enc.Word(r, word); return err }},
		{"sax.word", func(r []float64) error { _, err := senc.Word(r, word); return err }},
		{"sax.query_repr", func(r []float64) error { _, err := senc.QueryRepr(r, paa); return err }},
	} {
		if x.v[m.name+"_ns"], err = perRow(m.name, m.f); err != nil {
			return err
		}
	}

	// The leaf queue at the depth the traced queries reached.
	depth := max(16, int(x.v["index.leaves_refined_per_query"]))
	prio := make([]float64, depth)
	for i := range prio {
		prio[i] = x.rng.Float64()
	}
	const rounds = 200
	var pq queue.PQ[int]
	d := timed("queue.push_pop", -1, func() {
		for r := 0; r < rounds; r++ {
			for i, p := range prio {
				pq.Push(i, p)
			}
			for {
				if _, ok := pq.PopIfBelow(math.Inf(1)); !ok {
					break
				}
			}
		}
	})
	x.v["queue.push_pop_ns"] = d / float64(rounds*depth)
	x.tr.end(phase, pT)
	return nil
}

// gatherTables is every (position, symbol) interval of a summarization, flat:
// what internal/index precomputes for the gather kernel.
func gatherTables(s index.Summarizer) (lower, upper []float64) {
	l, alpha := s.Segments(), 1<<s.MaxBits()
	lower, upper = make([]float64, l*alpha), make([]float64, l*alpha)
	for j := 0; j < l; j++ {
		bps := s.Breakpoints(j)
		for sym := 0; sym < alpha; sym++ {
			lo, hi := math.Inf(-1), math.Inf(1)
			if sym > 0 {
				lo = bps[sym-1]
			}
			if sym < alpha-1 {
				hi = bps[sym]
			}
			lower[j*alpha+sym], upper[j*alpha+sym] = lo, hi
		}
	}
	return lower, upper
}

// distTable is the per-query flat table of weighted squared interval
// distances that the lookup kernel sums: internal/index's distTable.
func distTable(s index.Summarizer, qr, lower, upper []float64) []float64 {
	l, alpha := s.Segments(), 1<<s.MaxBits()
	table := make([]float64, l*alpha)
	for j := 0; j < l; j++ {
		for sym := 0; sym < alpha; sym++ {
			d := math.Max(math.Max(lower[j*alpha+sym]-qr[j], qr[j]-upper[j*alpha+sym]), 0)
			table[j*alpha+sym] = s.Weights()[j] * d * d
		}
	}
	return table
}

// budget closes the per-query time budget of the serial tree search: the
// LBD and ED shares come from the kernel queries, where search and unit
// costs were timed together, and are applied to index.search_ns; self is
// what remains.
func (x *traced) budget() error {
	search := x.v["index.search_ns"]
	share := map[string]float64{
		"znorm": x.v["distance.znorm_ns"] / search,
		"repr":  x.v["sfa.query_repr_ns"] / search,
		"lbd":   x.budgetLBDNs / x.budgetSearchNs,
		"ed":    x.budgetEDNs / x.budgetSearchNs,
	}
	share["self"] = 1 - share["znorm"] - share["repr"] - share["lbd"] - share["ed"]
	for name, part := range share {
		x.v["index."+name+"_time_share"] = part
	}
	x.v["index.lbd_ns"], x.v["index.ed_ns"], x.v["index.self_ns"] = share["lbd"]*search, share["ed"]*search, share["self"]*search
	return nil
}

// baselines runs MESSI (the same tree over iSAX words), the UCR-style scan
// and the flat index on the first traced queries, serially like the SOFA
// searcher they are compared with; every answer doubles as an oracle check.
func (x *traced) baselines() error {
	data := x.in.data
	sq, err := sax.NewQuantizer(data.Stride, x.quant.Segments(), x.quant.MaxBits())
	if err != nil {
		return err
	}
	phase, pT := x.phase("pass.baselines")
	id, t0 := x.tr.begin("sax.build", phase, -1)
	mtree, err := index.Build(data, saxSum{sq}, index.Options{Workers: nproc})
	if err != nil {
		return err
	}
	x.tr.end(id, t0)
	messi := mtree.NewSerialSearcher()
	sc, err := scan.New(data, 1)
	if err != nil {
		return err
	}
	fl, err := flat.Build(data, 1)
	if err != nil {
		return err
	}
	var messiED float64
	for _, b := range []struct {
		name, p50, speedup string
		n                  int
		search             func(q []float64) ([]index.Result, error)
	}{
		{"sax.messi", "sax.messi_query_p50_ms", "paper.speedup_vs_messi", messiQueries, func(q []float64) ([]index.Result, error) {
			res, err := messi.Search(q, kNN)
			messiED += float64(messi.LastStats().SeriesED)
			return res, err
		}},
		{"scan", "scan.query_p50_ms", "paper.speedup_vs_scan", scanQueries, func(q []float64) ([]index.Result, error) { return sc.Search(q, kNN) }},
		{"flat", "flat.query_p50_ms", "paper.speedup_vs_flat", flatQueries, func(q []float64) ([]index.Result, error) { return fl.Search(q, kNN) }},
	} {
		n := min(b.n, x.nq)
		var ms []float64
		for i := 0; i < n; i++ {
			id, t0 := x.tr.begin(b.name+".search", phase, i)
			res, err := b.search(x.in.queries.Row(i))
			ms = append(ms, x.tr.end(id, t0).Seconds()*1e3)
			// flat decomposes the distance into norms and a dot product, so
			// its distances carry cancellation error the others do not.
			x.t.ok(err == nil && sameAnswer(x.answers[i], res, 1e-6), "%s query %d: SOFA %v, baseline %v (err %v)", b.name, i, x.answers[i], res, err)
		}
		x.v[b.p50] = median(ms)
		x.v[b.speedup] = median(ms) / (median(x.searchNs[:n]) / 1e6)
	}
	x.v["sax.messi_series_ed_per_query"] = messiED / float64(min(messiQueries, x.nq))
	x.tr.end(phase, pT)
	return nil
}

// collections measures what internal/core and sofa add around the tree: the
// collection layer at one shard, shard fan-in at four, the public API on the
// workload's own configuration, and the batch and stream engines.
func (x *traced) collections() error {
	w, data := x.in.w, x.in.data
	phase, pT := x.phase("pass.collections")
	defer func() { x.tr.end(phase, pT) }()
	build := func(shards int) (*core.Index, error) {
		id, t0 := x.tr.begin(fmt.Sprintf("core.build.s%d", shards), phase, -1)
		defer func() { x.tr.end(id, t0) }()
		return core.Build(data, core.Config{Shards: shards, Workers: nproc})
	}
	c1, err := build(1)
	if err != nil {
		return err
	}
	c4, err := build(4)
	if err != nil {
		return err
	}
	// serial answers q on a pooled single-threaded collection searcher.
	serial := func(c *core.Index, q []float64) ([]index.Result, error) {
		out, err := c.Collection().SearchBatchPlan(x.ctx, []core.PlanQuery{{Series: q, Plan: core.Plan{K: kNN}}}, 1)
		if err != nil {
			return nil, err
		}
		return out[0], nil
	}
	// Tree, one-shard collection and four-shard collection answer each query
	// back to back, in rotating order so that none always finds the rows warm;
	// the layer costs are medians of the paired differences.
	ser := x.tree.NewSerialSearcher()
	calls := []struct {
		name   string
		search func(q []float64) ([]index.Result, error)
	}{
		{"index.search", func(q []float64) ([]index.Result, error) { return ser.Search(q, kNN) }},
		{"core.search", func(q []float64) ([]index.Result, error) { return serial(c1, q) }},
		{"core.search.s4", func(q []float64) ([]index.Result, error) { return serial(c4, q) }},
	}
	var s1, over, fanin []float64
	for i := 0; i < x.nq; i++ {
		q := x.in.queries.Row(i)
		if i == 0 { // fill the pooled searchers, untimed
			for _, c := range calls {
				c.search(q)
			}
		}
		op, opT := x.tr.begin("query", phase, i)
		var d [3]float64
		for j := range calls {
			c := (i + j) % len(calls)
			id, t0 := x.tr.begin(calls[c].name, op, i)
			res, err := calls[c].search(q)
			d[c] = ns(x.tr.end(id, t0))
			x.t.ok(err == nil && sameAnswer(res, x.answers[i], tolExact), "%s query %d: %v (err %v), tree %v", calls[c].name, i, res, err, x.answers[i])
		}
		x.tr.end(op, opT)
		s1, over, fanin = append(s1, d[1]), append(over, d[1]-d[0]), append(fanin, d[2]-d[1])
	}
	x.v["core.search_ns"], x.v["core.overhead_ns"], x.v["core.shard_fanin_ns"] = mean(s1), median(over), median(fanin)

	// The public API on the workload's own shard count and engine, paired
	// query by query with the same engine one layer down.
	same := map[int]*core.Index{1: c1, 4: c4}[w.Shards]
	if same == nil || workersOf(w) != nproc {
		if same, err = core.Build(data, core.Config{Shards: w.Shards, Workers: workersOf(w)}); err != nil {
			return err
		}
	}
	engine := same.NewSearcher()
	below := func(q []float64, buf []index.Result) ([]index.Result, error) {
		return engine.SearchPlan(x.ctx, q, core.Plan{K: kNN}, buf[:0])
	}
	sx, err := sofa.Build(data, sofa.Shards(w.Shards), sofa.Workers(workersOf(w)))
	if err != nil {
		return err
	}
	var buf, cbuf []sofa.Result
	api := func(tr *tracer, parent, i int) (float64, error) {
		id, t0 := tr.begin("sofa.search", parent, i)
		var err error
		buf, err = sx.SearchInto(x.ctx, sofa.Query{Series: x.in.queries.Row(i), K: kNN}, buf)
		return ns(tr.end(id, t0)), err
	}
	var apiOver, tracedNs, plainNs []float64
	for i := 0; i < x.nq; i++ {
		q := x.in.queries.Row(i)
		if i == 0 { // fill both searcher pools, untimed
			below(q, cbuf)
			api(nil, 0, i)
		}
		op, opT := x.tr.begin("query", phase, i)
		var da, db float64
		for j := 0; j < 2; j++ {
			if (i+j)%2 == 0 {
				id, t0 := x.tr.begin("core.search.same", op, i)
				cbuf, err = below(q, cbuf)
				db = ns(x.tr.end(id, t0))
			} else {
				da, err = api(x.tr, op, i)
				x.t.ok(err == nil && sameAnswer(buf, x.answers[i], tolExact), "sofa query %d: %v (err %v), tree %v", i, buf, err, x.answers[i])
			}
			if err != nil {
				return err
			}
		}
		x.tr.end(op, opT)
		apiOver = append(apiOver, da-db)
	}
	x.v["sofa.overhead_ns"] = median(apiOver)

	// Tracing overhead: each query through the public API once with a span
	// and once without, alternating which goes first.
	for i := 0; i < x.nq; i++ {
		for j := 0; j < 2; j++ {
			tr, dst := x.tr, &tracedNs
			if (i+j)%2 == 0 {
				tr, dst = nil, &plainNs
			}
			d, err := api(tr, phase, i)
			if err != nil {
				return err
			}
			*dst = append(*dst, d)
		}
	}
	x.v["trace.overhead_share"] = median(tracedNs)/median(plainNs) - 1
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < x.nq; i++ {
		if _, err := api(nil, 0, i); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	x.v["sofa.search_allocs_per_op"] = float64(after.Mallocs-before.Mallocs) / float64(x.nq)

	// Batch and stream engines on the workload's shard count.
	qm := head(x.in.queries, x.nq)
	col := same.Collection()
	batchQPS := func(workers int) (float64, error) {
		id, t0 := x.tr.begin(fmt.Sprintf("core.batch.w%d", workers), phase, -1)
		_, err := col.SearchBatch(qm, kNN, workers)
		return float64(x.nq) / x.tr.end(id, t0).Seconds(), err
	}
	if _, err := batchQPS(nproc); err != nil { // fill the searcher pool
		return err
	}
	w1, err := batchQPS(1)
	if err != nil {
		return err
	}
	wn, err := batchQPS(nproc)
	if err != nil {
		return err
	}
	x.v["core.batch_qps_w1"], x.v["core.batch_scaling"] = w1, wn/w1
	var streamErrs atomic.Int64
	st, err := col.NewStream(kNN, nproc, func(_ uint64, res []index.Result, err error) {
		if err != nil || len(res) != kNN {
			streamErrs.Add(1)
		}
	})
	if err != nil {
		return err
	}
	id, t0 := x.tr.begin("core.stream", phase, -1)
	for i := 0; i < x.nq; i++ {
		if _, err := st.Submit(qm.Row(i)); err != nil {
			st.Close()
			return err
		}
	}
	st.Close()
	x.v["core.stream_qps"] = float64(x.nq) / x.tr.end(id, t0).Seconds()
	x.t.ok(streamErrs.Load() == 0, "stream: %d failed answers", streamErrs.Load())

	// One row in ten tombstoned, nothing compacted: the skip fused into the
	// block survivor pass.
	for g := 0; g < data.Len(); g += 10 {
		if err := c1.Delete(index.ID(g)); err != nil {
			return err
		}
	}
	var tomb []float64
	for i := 0; i < x.nq; i++ {
		id, t0 := x.tr.begin("core.search.tombstoned", phase, i)
		res, err := serial(c1, x.in.queries.Row(i))
		tomb = append(tomb, ns(x.tr.end(id, t0)))
		good := err == nil && len(res) == kNN
		for _, r := range res {
			good = good && r.ID%10 != 0
		}
		x.t.ok(good, "tombstoned query %d: %v (err %v)", i, res, err)
	}
	x.v["core.search_ns_tombstoned"] = mean(tomb)
	return nil
}

// writePathMetrics are what inserts and lifecycle measure: non-zero only on
// the workload that writes.
var writePathMetrics = []string{
	"index.insert_us", "core.tree_insert_us", "core.wal_append_us", "core.fsync_us",
	"core.wal_bytes_per_mutation", "core.write_p50_us", "core.write_p99_us", "core.checkpoint_ms",
	"core.recover_ms", "core.disk_bytes_per_user_byte",
	"core.compact_shard_ms", "core.compact_shard_max_ms", "core.compactions", "core.relearns",
	"core.save_ms", "core.load_decode_ms", "core.load_tree_ms", "core.wal_replay_us_per_record", "core.container_bytes",
}

// inserts measures the write path layer by layer on an index of the
// workload's size: the bare tree, the collection, the store's WAL append, and
// a per-insert fsync, each as the difference from the layer below.
func (x *traced) inserts() error {
	w := x.in.w
	phase, pT := x.phase("pass.inserts")
	defer func() { x.tr.end(phase, pT) }()
	rows := min(insertSample, x.in.payload.Len())
	tree, err := index.Build(head(x.in.data, w.N), x.sum, index.Options{Workers: nproc})
	if err != nil {
		return err
	}
	// Every insert is timed on its own and the medians are reported: the one
	// insert that outgrows the series matrix copies all of it (~100 ms of
	// page faults here) and would otherwise decide the mean of whichever
	// class it lands in.
	enc := tree.Encoder()
	var treeUs []float64
	for i := 0; i < rows; i++ {
		id, t0 := x.tr.begin("index.insert", phase, i)
		_, err := tree.Insert(x.in.payload.Row(i), enc)
		treeUs = append(treeUs, x.tr.end(id, t0).Seconds()*1e6)
		if err != nil {
			return err
		}
	}
	x.v["index.insert_us"] = median(treeUs)
	// Bare and logged inserts alternate on one index, so both see the same
	// tree growth and matrix reallocations; a second store then pays an
	// fsync per insert.
	ix, err := core.Build(head(x.in.data, w.N), core.Config{Shards: w.Shards, Workers: nproc})
	if err != nil {
		return err
	}
	store := func(policy core.SyncPolicy) (*core.Store, func(), error) {
		dir, err := os.MkdirTemp(x.o.tmpRoot, "wal-")
		if err != nil {
			return nil, nil, err
		}
		st, err := core.CreateStore(dir, ix, core.DurableConfig{Sync: policy})
		return st, func() { os.RemoveAll(dir) }, err
	}
	st, cleanup, err := store(core.SyncNone)
	if err != nil {
		return err
	}
	defer cleanup()
	var bare, logged, synced []float64
	for i := 0; i < rows; i++ {
		row := x.in.payload.Row(i)
		if i%2 == 0 {
			id, t0 := x.tr.begin("core.insert", phase, i)
			_, err = ix.Insert(row)
			bare = append(bare, x.tr.end(id, t0).Seconds()*1e6)
		} else {
			id, t0 := x.tr.begin("core.store.insert", phase, i)
			_, err = st.Insert(row)
			logged = append(logged, x.tr.end(id, t0).Seconds()*1e6)
		}
		if err != nil {
			return err
		}
	}
	if err := st.Close(); err != nil {
		return err
	}
	if st, cleanup, err = store(core.SyncAlways); err != nil {
		return err
	}
	defer cleanup()
	for i := 0; i < min(fsyncSample, rows); i++ {
		id, t0 := x.tr.begin("core.store.insert.synced", phase, i)
		_, err = st.Insert(x.in.payload.Row(i))
		synced = append(synced, x.tr.end(id, t0).Seconds()*1e6)
		if err != nil {
			return err
		}
	}
	x.v["core.tree_insert_us"] = median(bare)
	x.v["core.wal_append_us"] = median(logged) - median(bare)
	x.v["core.fsync_us"] = median(synced) - median(logged)
	return st.Close()
}

// lifecycle runs the durable script with spans, then takes the store's last
// checkpoint apart: load phases, save time, and WAL replay as the part of
// the first reopen that loading the container does not explain.
func (x *traced) lifecycle() error {
	dir, err := os.MkdirTemp(x.o.tmpRoot, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := createStore(dir, head(x.in.data, x.in.w.N), x.in.w)
	if err != nil {
		return err
	}
	phase, pT := x.phase("pass.lifecycle")
	defer func() { x.tr.end(phase, pT) }()
	lr, err := runLifecycle(x.in, store, dir, x.tr, phase, &x.t, nil)
	if err != nil {
		return err
	}
	x.v["core.wal_bytes_per_mutation"] = float64(lr.walBytes) / float64(lr.mutations)
	x.v["core.write_p50_us"], x.v["core.write_p99_us"] = percentile(lr.writeUs, 50), percentile(lr.writeUs, 99)
	x.v["core.checkpoint_ms"], x.v["core.recover_ms"] = median(lr.checkpointS)*1e3, median(lr.recoverS)*1e3
	x.v["core.disk_bytes_per_user_byte"] = float64(lr.diskBytes) / float64(lr.live*x.in.spec.Length*8)
	x.v["core.compact_shard_ms"], x.v["core.compact_shard_max_ms"] = median(lr.compactShardMs), percentile(lr.compactShardMs, 100)
	x.v["core.compactions"], x.v["core.relearns"] = float64(lr.compactions), float64(lr.relearns)
	x.v["core.container_bytes"] = float64(lr.containerBytes)

	f, err := os.Open(core.ContainerPath(dir))
	if err != nil {
		return err
	}
	defer f.Close()
	var ls core.LoadStats
	id, t0 := x.tr.begin("core.load", phase, -1)
	ix, err := core.LoadWithStats(f, &ls)
	x.tr.end(id, t0)
	if err != nil {
		return err
	}
	x.v["core.load_decode_ms"], x.v["core.load_tree_ms"] = ls.DecodeSeconds*1e3, ls.TreeSeconds*1e3
	x.v["core.wal_replay_us_per_record"] = (median(lr.recoverS) - ls.TotalSeconds) * 1e6 / float64(max(lr.replayed, 1))
	id, t0 = x.tr.begin("core.save", phase, -1)
	err = core.SaveFile(ix, filepath.Join(dir, "resave.sofa"))
	x.v["core.save_ms"] = x.tr.end(id, t0).Seconds() * 1e3
	return err
}
