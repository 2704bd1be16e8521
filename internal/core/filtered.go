package core

import (
	"context"
	"fmt"

	"repro/internal/filter"
	"repro/internal/index"
	"repro/internal/topk"
	"repro/internal/vec"
	"repro/internal/vptree"
)

// FilterPredicate compiles a filter expression into an ID predicate
// over the engine's tag store. A nil/empty expression compiles to nil
// (match everything), which the search paths treat as unfiltered.
// The predicate is lock-free and safe for concurrent use.
func (e *Engine) FilterPredicate(f *filter.Expr) func(int64) bool {
	if f.Empty() {
		return nil
	}
	return func(id int64) bool { return f.Matches(e.tags.get(id)) }
}

// SearchFiltered returns the approximate k nearest neighbors of q whose
// tags satisfy f, with the predicate pushed down into the per-partition
// graph traversal (see hnsw.SearchEfFiltered). Tombstones are filtered
// exactly as in Search.
func (e *Engine) SearchFiltered(q []float32, k int, f *filter.Expr) ([]topk.Result, error) {
	rs, _, err := e.SearchFilteredStats(q, k, f)
	return rs, err
}

// SearchFilteredStats is SearchFiltered plus the work performed.
func (e *Engine) SearchFilteredStats(q []float32, k int, f *filter.Expr) ([]topk.Result, index.Stats, error) {
	keep := e.FilterPredicate(f)
	if keep == nil {
		return e.SearchStats(q, k)
	}
	if len(q) != e.dim {
		return nil, index.Stats{}, fmt.Errorf("core: query dim %d, index dim %d", len(q), e.dim)
	}
	if k <= 0 {
		k = e.cfg.K
	}
	fetch := e.overfetch(k)
	tree, parts := e.view()
	if e.cfg.Routing == RouteAdaptive {
		// Home first, then widen to the ball of the current k-th matching
		// distance. The filtered k-th distance is never smaller than the
		// unfiltered one, so the ball — and hence the route set — is
		// conservative (correct, possibly wider).
		home := tree.Home(q)
		first, st0, err := index.SearchFiltered(parts[home], q, fetch, keep)
		if err != nil {
			return nil, st0, err
		}
		var rts []vptree.Route
		if len(first) > 0 {
			rts = tree.RouteBall(q, first[len(first)-1].Dist)
		} else {
			rts = tree.RouteAll(q)
		}
		lists := [][]topk.Result{first}
		total := st0
		for _, rt := range rts {
			if rt.Partition == home {
				continue
			}
			rs, st, err := index.SearchFiltered(parts[rt.Partition], q, fetch, keep)
			if err != nil {
				return nil, total, err
			}
			total = addStats(total, st)
			lists = append(lists, rs)
		}
		return e.filterDeleted(topk.Merge(fetch, lists...), k), total, nil
	}
	rts := tree.RouteTop(q, e.cfg.NProbe)
	lists := make([][]topk.Result, 0, len(rts))
	var total index.Stats
	for _, rt := range rts {
		rs, st, err := index.SearchFiltered(parts[rt.Partition], q, fetch, keep)
		if err != nil {
			return nil, total, err
		}
		total = addStats(total, st)
		lists = append(lists, rs)
	}
	return e.filterDeleted(topk.Merge(fetch, lists...), k), total, nil
}

func addStats(a, b index.Stats) index.Stats {
	return index.Stats{
		DistComps:  a.DistComps + b.DistComps,
		Hops:       a.Hops + b.Hops,
		QuantComps: a.QuantComps + b.QuantComps,
		Reranked:   a.Reranked + b.Reranked,
	}
}

// SearchBatchFiltered answers all queries under one filter using a pool
// of nThreads workers, with the same cancellation semantics as
// SearchBatchContext.
func (e *Engine) SearchBatchFiltered(ctx context.Context, queries *vec.Dataset, k int, f *filter.Expr, nThreads int) ([][]topk.Result, error) {
	return e.searchEach(ctx, queries, nThreads, func(q []float32) ([]topk.Result, error) {
		return e.SearchFiltered(q, k, f)
	})
}
