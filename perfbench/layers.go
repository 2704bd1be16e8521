package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/fusion"
	"repro/internal/index"
	"repro/internal/vec"
)

// The traced run replays a sample of the workload's own queries
// directly against the engine's public functions, one call at a time,
// to time the engine legs and count traversal work. On read-only
// workloads the counts repeat exactly for a seed.

const (
	replayKNN      = 500 // knn reads replayed
	replayFiltered = 100 // filtered reads replayed per filter
	replayHybrid   = 300 // hybrid reads replayed
)

// sink keeps kernel results alive so the timing loops are not removed.
var sink float64

type traversal struct {
	us     float64 // mean µs per call
	counts index.Stats
	n      int
}

func (t traversal) per(x int64) float64 { return float64(x) / float64(t.n) }

// searchReplay times Engine.SearchStats at depth k over the search ops.
func searchReplay(e *core.Engine, in *inputs, ops []op, k int) traversal {
	var t traversal
	var total time.Duration
	for _, o := range ops {
		q := in.queries.At(o.q)
		t0 := time.Now()
		_, st, err := e.SearchStats(q, k)
		total += time.Since(t0)
		if err != nil {
			continue
		}
		t.counts = addStats(t.counts, st)
		t.n++
	}
	t.us = us(total) / float64(max(t.n, 1))
	return t
}

func filteredReplay(e *core.Engine, in *inputs, ops []op) traversal {
	var t traversal
	var total time.Duration
	for _, o := range ops {
		f := mustFilter(o.filter)
		t0 := time.Now()
		_, st, err := e.SearchFilteredStats(in.queries.At(o.q), topK, f)
		total += time.Since(t0)
		if err != nil {
			continue
		}
		t.counts = addStats(t.counts, st)
		t.n++
	}
	t.us = us(total) / float64(max(t.n, 1))
	return t
}

func addStats(a, b index.Stats) index.Stats {
	return index.Stats{
		DistComps:  a.DistComps + b.DistComps,
		Hops:       a.Hops + b.Hops,
		QuantComps: a.QuantComps + b.QuantComps,
		Reranked:   a.Reranked + b.Reranked,
	}
}

// traversalMetrics reports per-query counts under hnsw.*<suffix>.
func (b *bench) traversalMetrics(t traversal, suffix string) {
	b.m["hnsw.dist_comps"+suffix] = t.per(t.counts.DistComps)
	b.m["hnsw.quant_comps"+suffix] = t.per(t.counts.QuantComps)
	b.m["hnsw.hops"+suffix] = t.per(t.counts.Hops)
	b.m["hnsw.reranked"+suffix] = t.per(t.counts.Reranked)
}

// hybridReplay times Engine.SearchHybrid and, separately, each of its
// legs: the vector leg (SearchStats at the hybrid leg depth), the BM25
// leg (SearchLexical) and the rank fusion (fusion.RRF over the two
// legs). What the legs do not account for is the exact re-scoring and
// the maps that join them.
func (b *bench) hybridReplay(e *core.Engine, ops []op) traversal {
	var hyb, lex, rrf time.Duration
	n := 0
	for _, o := range ops {
		q := b.in.queries.At(o.q)
		t0 := time.Now()
		_, err := e.SearchHybrid(q, o.text, topK, core.HybridOptions{})
		hyb += time.Since(t0)
		if err != nil {
			continue
		}
		n++
		t1 := time.Now()
		scored := e.SearchLexical(o.text, legK, nil)
		lex += time.Since(t1)

		rs, _ := e.Search(q, legK)
		vl := make([]fusion.Candidate, len(rs))
		for i, r := range rs {
			vl[i] = fusion.Candidate{ID: r.ID, Score: -float64(r.Dist)}
		}
		ll := make([]fusion.Candidate, len(scored))
		for i, s := range scored {
			ll[i] = fusion.Candidate{ID: s.ID, Score: s.Score}
		}
		t2 := time.Now()
		fused := fusion.RRF(0, topK, vl, ll)
		rrf += time.Since(t2)
		sink += float64(len(fused))
	}
	vecLeg := searchReplay(e, b.in, ops, legK)
	per := func(d time.Duration) float64 { return us(d) / float64(max(n, 1)) }
	b.m["core.hybrid_us"] = per(hyb)
	b.m["core.hybrid.vector_us"] = vecLeg.us
	b.m["lexical.search_us"] = per(lex)
	b.m["fusion.rrf_us"] = per(rrf)
	b.m["core.hybrid.rescore_us"] = per(hyb) - vecLeg.us - per(lex) - per(rrf)
	qs := make([]int, len(ops))
	for i, o := range ops {
		qs[i] = o.q
	}
	b.m["lexical.postings_per_query"] = b.in.postingsPerQuery(qs)
	if p := b.m["lexical.postings_per_query"]; p > 0 {
		b.m["lexical.useful_ratio"] = legK / p
	}
	return vecLeg
}

// kernels times the two distance kernels on corpus vectors: float32
// L2 over 128-d rows (1,024 B per call) and SQ8 L2 over their 128-byte
// codes (256 B per call). Each is the median of five timed passes.
func (b *bench) kernels() {
	ds := b.in.ds
	n, dim := ds.Len(), ds.Dim
	const calls = 100000
	var l2, sq []float64
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		var s float32
		for i := 0; i < calls; i++ {
			s += vec.SquaredL2Distance(ds.At(i%n), ds.At((i*7+1)%n))
		}
		l2 = append(l2, float64(time.Since(t0))/calls)
		sink += float64(s)
	}
	q, err := vec.TrainSQ8(ds)
	if err == nil {
		codes, err := q.EncodeAll(ds)
		if err == nil {
			for rep := 0; rep < 5; rep++ {
				t0 := time.Now()
				var s uint32
				for i := 0; i < calls; i++ {
					a, c := (i%n)*dim, ((i*7+1)%n)*dim
					s += vec.SquaredL2Bytes(codes[a:a+dim], codes[c:c+dim])
				}
				sq = append(sq, float64(time.Since(t0))/calls)
				sink += float64(s)
			}
		}
	}
	b.check(err)
	b.m["vec.l2_ns"] = median(l2)
	b.m["vec.sq8_ns"] = median(sq)
}

// kernelShare is the share of a call's time the distance kernels
// account for, from its per-query counts and the kernel timings.
func (b *bench) kernelShare(t traversal, callUS float64) {
	if callUS <= 0 || t.n == 0 {
		return
	}
	ns := t.per(t.counts.DistComps)*b.m["vec.l2_ns"] + t.per(t.counts.QuantComps)*b.m["vec.sq8_ns"]
	b.m["vec.kernel_share"] = ns / (callUS * 1e3)
}

// firstOps returns up to n ops of kind k (and filter f, when set).
func firstOps(ops []op, k opKind, f string, n int) []op {
	var out []op
	for _, o := range ops {
		if len(out) == n {
			break
		}
		if o.kind == k && (f == "" || o.filter == f) {
			out = append(out, o)
		}
	}
	return out
}

// coreLayers measures the engine, traversal, kernel and lexical layers
// of a read-only workload on the served engine.
func (b *bench) coreLayers(s *stack, ops []op) {
	e := s.eng
	b.kernels()
	switch b.w {
	case "knn":
		t := searchReplay(e, b.in, firstOps(ops, opSearch, "", replayKNN), topK)
		b.m["core.search_us"] = t.us
		b.traversalMetrics(t, "")
		b.kernelShare(t, t.us)
		// The pushdown path is timed on the same engine once it carries
		// the t100/t10/t1 tags, which unfiltered search never reads.
		for i := 0; i < b.in.ds.Len(); i++ {
			id := b.in.ds.ID(i)
			e.SetTags(id, tagsFor(id))
		}
		filtered := readOps("filtered", b.in, ops[0].q, ops[0].q+2*replayFiltered)
		t1 := filteredReplay(e, b.in, firstOps(filtered, opSearch, "t1=1", replayFiltered))
		t10 := filteredReplay(e, b.in, firstOps(filtered, opSearch, "t10=1", replayFiltered))
		b.m["core.filtered_us.t1"] = t1.us
		b.m["core.filtered_us.t10"] = t10.us
		b.traversalMetrics(t1, ".t1")
		b.traversalMetrics(t10, ".t10")
	case "hybrid":
		t := b.hybridReplay(e, firstOps(ops, opHybrid, "", replayHybrid))
		b.traversalMetrics(t, "")
		b.kernelShare(t, b.m["core.hybrid_us"])
	}
}
