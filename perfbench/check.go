package main

import (
	"encoding/json"
	"fmt"
	"maps"
	"slices"

	"repro/internal/bruteforce"
	"repro/internal/core"
	"repro/internal/fusion"
	"repro/internal/lexical"
	"repro/internal/topk"
	"repro/internal/vec"
)

// Output checks. A failed check fails the run (it is reported as
// "correct": false), it is not a metric.

type searchBody struct {
	Results []struct {
		IDs    []int64   `json:"ids"`
		Dists  []float32 `json:"dists"`
		Cached bool      `json:"cached"`
	} `json:"results"`
}

type hybridBody struct {
	Cached  bool `json:"cached"`
	Results []struct {
		ID int64 `json:"id"`
	} `json:"results"`
}

// answer is a parsed read response: the result IDs in rank order and
// whether the gateway served it from its cache.
type answer struct {
	ids    []int64
	cached bool
}

// parseRead checks the shape of one read response and returns its
// IDs: exactly k hits, search hits in ascending distance and
// satisfying the request's filter.
func parseRead(o *op, r *result) (answer, error) {
	if o.kind == opHybrid {
		var b hybridBody
		if err := json.Unmarshal(r.body, &b); err != nil {
			return answer{}, err
		}
		a := answer{cached: b.Cached}
		for _, h := range b.Results {
			a.ids = append(a.ids, h.ID)
		}
		if len(a.ids) != topK {
			return a, fmt.Errorf("hybrid query %d: %d hits, want %d", o.q, len(a.ids), topK)
		}
		return a, nil
	}
	var b searchBody
	if err := json.Unmarshal(r.body, &b); err != nil {
		return answer{}, err
	}
	if len(b.Results) != 1 {
		return answer{}, fmt.Errorf("query %d: %d result rows, want 1", o.q, len(b.Results))
	}
	row := b.Results[0]
	if len(row.IDs) != topK || len(row.Dists) != topK {
		return answer{}, fmt.Errorf("query %d: %d hits, want %d", o.q, len(row.IDs), topK)
	}
	for i, id := range row.IDs {
		if i > 0 && row.Dists[i] < row.Dists[i-1] {
			return answer{}, fmt.Errorf("query %d: distances not ascending at rank %d", o.q, i)
		}
		if !matches(o.filter, id) {
			return answer{}, fmt.Errorf("query %d: hit %d does not satisfy %q", o.q, id, o.filter)
		}
	}
	return answer{ids: row.IDs, cached: row.Cached}, nil
}

// recallAt is |approx ∩ truth| / |truth|.
func recallAt(approx []int64, truth []int64) float64 {
	hit := 0
	for _, id := range truth {
		if slices.Contains(approx, id) {
			hit++
		}
	}
	return float64(hit) / float64(len(truth))
}

func ids(rs []int32) []int64 {
	out := make([]int64, len(rs))
	for i, r := range rs {
		out[i] = int64(r)
	}
	return out
}

// truthFor computes the exact answer to every read in ops: brute force
// over ds for searches, and for hybrid reads the exact vector leg fused
// with the exact BM25 leg, with the formula and leg depth the engine
// uses.
func truthFor(in *inputs, ds *vec.Dataset, ops []op) [][]int64 {
	out := make([][]int64, len(ops))
	var search, hyb []int
	for i, o := range ops {
		if o.kind == opHybrid {
			hyb = append(hyb, i)
		} else {
			search = append(search, i)
		}
	}
	if len(search) > 0 {
		qs := vec.NewDataset(ds.Dim, len(search))
		for _, i := range search {
			qs.Append(in.queries.At(ops[i].q), int64(i))
		}
		for j, row := range bruteforce.GroundTruth(ds, qs, topK, vec.L2) {
			out[search[j]] = ids(row)
		}
	}
	if len(hyb) == 0 {
		return out
	}
	lex := lexical.NewIndex(lexical.Config{})
	for i, t := range in.texts {
		lex.Set(in.ds.ID(i), t, nil)
	}
	qs := vec.NewDataset(ds.Dim, len(hyb))
	for _, i := range hyb {
		qs.Append(in.queries.At(ops[i].q), int64(i))
	}
	vecLegs := bruteforce.SearchBatch(ds, qs, legK, vec.L2)
	for j, i := range hyb {
		vl := make([]fusion.Candidate, len(vecLegs[j]))
		for n, r := range vecLegs[j] {
			vl[n] = fusion.Candidate{ID: r.ID, Score: -float64(r.Dist)}
		}
		fusion.Sort(vl)
		var ll []fusion.Candidate
		for _, s := range lex.Search(ops[i].text, legK, nil) {
			ll = append(ll, fusion.Candidate{ID: s.ID, Score: s.Score})
		}
		for _, c := range fusion.RRF(0, topK, vl, ll) {
			out[i] = append(out[i], c.ID)
		}
	}
	return out
}

// meanRecall scores the answers of ops[i] for every i in sample.
func meanRecall(answers []answer, truth [][]int64, sample []int) float64 {
	sum := 0.0
	for _, i := range sample {
		sum += recallAt(answers[i].ids, truth[i])
	}
	return sum / float64(len(sample))
}

// ackLog is what the ingest writes acknowledged: the final live state
// of every point the benchmark inserted.
type ackLog struct {
	upserts map[int64]*op // acknowledged upserts, by ID
	deleted map[int64]bool
}

func newAckLog() *ackLog {
	return &ackLog{upserts: map[int64]*op{}, deleted: map[int64]bool{}}
}

// add records the acknowledged writes among ops.
func (a *ackLog) add(ops []op, res []result) {
	for i := range res {
		o := &ops[i]
		if !o.kind.isWrite() || !res[i].ok() {
			continue
		}
		if o.kind == opDelete {
			a.deleted[o.id] = true
		} else {
			a.upserts[o.id] = o
		}
	}
}

// liveSet is the corpus plus every acknowledged, undeleted insert.
func (a *ackLog) liveSet(ds *vec.Dataset) *vec.Dataset {
	live := ds.Clone()
	for id, o := range a.upserts {
		if !a.deleted[id] {
			live.Append(o.vec, id)
		}
	}
	return live
}

// checkDurable verifies a recovered engine against the acknowledged
// writes: every acknowledged upsert is present with its tags or text
// and is found by a search for its own vector; every acknowledged
// delete is gone from the engine and from that search.
func checkDurable(e *core.Engine, a *ackLog) error {
	for id, o := range a.upserts {
		rs, err := e.Search(o.vec, topK)
		if err != nil {
			return err
		}
		found := slices.ContainsFunc(rs, func(r topk.Result) bool { return r.ID == id })
		if a.deleted[id] {
			if !e.Deleted(id) || found {
				return fmt.Errorf("acknowledged delete of %d lost in recovery", id)
			}
			continue
		}
		if e.Deleted(id) || !found {
			return fmt.Errorf("acknowledged upsert of %d not searchable after recovery", id)
		}
		switch o.kind {
		case opUpsertTags:
			if got := e.Tags(id); !maps.Equal(got, o.tags) {
				return fmt.Errorf("upsert %d: tags %v after recovery, want %v", id, got, o.tags)
			}
		case opUpsertText:
			if got, _ := e.Text(id); got != o.text {
				return fmt.Errorf("upsert %d: text %q after recovery, want %q", id, got, o.text)
			}
		}
	}
	return nil
}
