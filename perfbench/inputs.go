package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/lexical"
	"repro/internal/vec"
)

// Every input of a run is a pure function of the seed: the corpus, its
// tags and text, the query pools, the operation mix, the Zipf draws and
// the open-loop arrival schedule. The program under test only ever sees
// the generated inputs.

const (
	corpusN = 20000 // 128-d SIFT stand-in: ≈10 MB float arena, ≈2.5 MB SQ8 codes
	topK    = 10
	legK    = 4 * topK // core.HybridOptions' default per-leg depth at k=10

	// perturbScale matches the query protocol the repo's experiments use
	// for "sift" (integer-quantised descriptors, a few counts of noise).
	perturbScale = 4
)

// opKind is one operation type of a traffic mix.
type opKind uint8

const (
	opSearch opKind = iota
	opHybrid
	opUpsertTags
	opUpsertText
	opDelete
)

func (k opKind) isWrite() bool { return k >= opUpsertTags }

// op is one pre-encoded request. Reads index the query pool; writes
// carry the ID they touch. dep is the index, within the same op list,
// of the upsert a delete must wait for (-1 when none), so a delete is
// never sent before the benchmark saw its upsert acknowledged.
type op struct {
	kind   opKind
	path   string
	body   []byte
	q      int    // query-pool index (reads)
	filter string // filter expression (filtered reads)
	text   string // query text (hybrid reads) or document text (text upserts)
	tags   map[string]string
	id     int64     // point ID (writes)
	vec    []float32 // upserted vector
	dep    int
	user   int // user payload bytes: vector + tags/text (writes)
}

const (
	routeSearch = "/v1/collections/default/search"
	routeHybrid = "/v1/collections/default/hybrid"
	routeUpsert = "/v1/collections/default/upsert"
	routeDelete = "/v1/collections/default/delete"
)

// tagsFor is the t100/t10/t1 ID rule of the repo's filtered
// experiment: every point carries t100, every 10th t10, every 100th t1.
func tagsFor(id int64) map[string]string {
	t := map[string]string{"t100": "1"}
	if id%10 == 0 {
		t["t10"] = "1"
	}
	if id%100 == 0 {
		t["t1"] = "1"
	}
	return t
}

// matches reports whether id satisfies one of the two filters the
// filtered reads carry.
func matches(filter string, id int64) bool {
	switch filter {
	case "t1=1":
		return id%100 == 0
	case "t10=1":
		return id%10 == 0
	}
	return true
}

// vocab is the shared vocabulary common documents draw from; small, so
// common terms have high document frequency and planted rare tokens
// dominate BM25 when a query asks for them.
var vocab = []string{
	"amber", "basalt", "cedar", "delta", "ember", "fjord", "garnet",
	"harbor", "indigo", "juniper", "krill", "lumen", "marble", "nectar",
	"onyx", "pumice", "quartz", "raven", "slate", "tundra", "umber",
	"violet", "willow", "xenon", "yarrow", "zephyr",
}

func commonText(rng *rand.Rand) string {
	n := 4 + rng.Intn(5)
	out := make([]byte, 0, 64)
	for j := 0; j < n; j++ {
		if j > 0 {
			out = append(out, ' ')
		}
		out = append(out, vocab[rng.Intn(len(vocab))]...)
	}
	return string(out)
}

// inputs is the generated corpus plus the query pool every phase draws
// from. texts and qtexts are set only for workloads with a lexical leg.
type inputs struct {
	seed    int64
	ds      *vec.Dataset
	queries *vec.Dataset
	texts   []string // by corpus position
	qtexts  []string // by query index
	qbody   [][]byte // JSON-encoded query vectors, by query index
}

// genInputs builds the corpus and nq perturbed queries. With text set,
// every document gets 4–8 common words and every fifth query asks for a
// unique rare token planted on a document at a hashed position, which
// is unrelated to the random corpus point the query perturbs, as in the
// repo's hybrid experiment: a vector-only search cannot find it.
func genInputs(seed int64, n, nq int, text bool) (*inputs, error) {
	ds, err := dataset.Named("sift", n, seed)
	if err != nil {
		return nil, err
	}
	in := &inputs{
		seed:    seed,
		ds:      ds,
		queries: dataset.PerturbedQueries(ds, nq, perturbScale, seed+1),
		qbody:   make([][]byte, nq),
	}
	for i := range in.qbody {
		b, err := json.Marshal(in.queries.At(i))
		if err != nil {
			return nil, err
		}
		in.qbody[i] = b
	}
	if !text {
		return in, nil
	}
	rng := rand.New(rand.NewSource(seed + 97))
	in.texts = make([]string, n)
	for i := range in.texts {
		in.texts[i] = commonText(rng)
	}
	in.qtexts = make([]string, nq)
	for i := range in.qtexts {
		if i%5 == 0 {
			pos := int((int64(i)*2654435761 + 12345) % int64(n))
			token := fmt.Sprintf("needle%d", i)
			in.texts[pos] += " " + token
			in.qtexts[i] = token
		} else {
			in.qtexts[i] = vocab[rng.Intn(len(vocab))] + " " + vocab[rng.Intn(len(vocab))]
		}
	}
	return in, nil
}

// postingsPerQuery is Σ document frequency of each query's distinct
// terms, averaged over the given queries: the postings a BM25 leg with
// no early termination must score.
func (in *inputs) postingsPerQuery(qs []int) float64 {
	df := make(map[string]int)
	for _, t := range in.texts {
		seen := map[string]bool{}
		for _, tok := range lexical.Tokenize(t) {
			if !seen[tok] {
				seen[tok] = true
				df[tok]++
			}
		}
	}
	total := 0
	for _, qi := range qs {
		seen := map[string]bool{}
		for _, tok := range lexical.Tokenize(in.qtexts[qi]) {
			if !seen[tok] {
				seen[tok] = true
				total += df[tok]
			}
		}
	}
	if len(qs) == 0 {
		return 0
	}
	return float64(total) / float64(len(qs))
}

func searchOp(in *inputs, qi int, filter string) op {
	body := []byte(`{"k":10,"query":`)
	body = append(body, in.qbody[qi]...)
	if filter != "" {
		body = append(body, `,"filter":"`+filter+`"`...)
	}
	body = append(body, '}')
	return op{kind: opSearch, path: routeSearch, body: body, q: qi, filter: filter, dep: -1}
}

func hybridOp(in *inputs, qi int) op {
	t, _ := json.Marshal(in.qtexts[qi])
	body := []byte(`{"k":10,"query":`)
	body = append(body, in.qbody[qi]...)
	body = append(body, `,"text":`...)
	body = append(body, t...)
	body = append(body, '}')
	return op{kind: opHybrid, path: routeHybrid, body: body, q: qi, text: in.qtexts[qi], dep: -1}
}

// readOps returns ops for queries [lo, hi) of the pool in the read mix
// w: knn, hybrid, or filtered.
func readOps(w string, in *inputs, lo, hi int) []op {
	ops := make([]op, 0, hi-lo)
	for qi := lo; qi < hi; qi++ {
		switch w {
		case "knn":
			ops = append(ops, searchOp(in, qi, ""))
		case "filtered":
			// Alternating 1% and 10% filters; the knn traced run
			// replays these against its engine once it is tagged.
			f := "t1=1"
			if qi%2 == 1 {
				f = "t10=1"
			}
			ops = append(ops, searchOp(in, qi, f))
		case "hybrid":
			ops = append(ops, hybridOp(in, qi))
		}
	}
	return ops
}

// ingestGen draws the ingest mix: 80% reads Zipf-skewed over a fixed
// read pool, 20% writes. Two reads in three are knn and one is hybrid:
// with an even split the median read latency would fall between the
// knn and the (several times slower) hybrid latency modes. Writes cycle through
// tagged upsert, text upsert, tagged upsert, text upsert, delete; a
// delete removes one of the generator's own earlier inserts. Tags and
// text alternate because the write path does not accept both on one
// point.
type ingestGen struct {
	in     *inputs
	rng    *rand.Rand
	zipf   *rand.Zipf // read pool is queries [0, ingestPool)
	nextID int64      // next insert ID
	writes int
	// inserted lists this generator's upserts not yet chosen for
	// deletion.
	inserted []insert
}

type insert struct {
	at int
	id int64
}

const (
	ingestPool      = 1000 // distinct read queries Zipf draws cover
	ingestZipfS     = 1.1
	ingestWriteFrac = 0.2
	deleteEvery     = 5 // every fifth write is a delete
)

func newIngestGen(in *inputs, stream, firstID int64) *ingestGen {
	rng := rand.New(rand.NewSource(in.seed*7919 + stream))
	return &ingestGen{
		in:     in,
		rng:    rng,
		zipf:   rand.NewZipf(rng, ingestZipfS, 1, ingestPool-1),
		nextID: firstID,
	}
}

// ops draws n operations; op indices (for delete dependencies) count
// from the start of the returned slice.
func (g *ingestGen) ops(n int) []op {
	out := make([]op, 0, n)
	for i := 0; i < n; i++ {
		if g.rng.Float64() >= ingestWriteFrac {
			qi := int(g.zipf.Uint64())
			if g.rng.Intn(3) != 0 {
				out = append(out, searchOp(g.in, qi, ""))
			} else {
				out = append(out, hybridOp(g.in, qi))
			}
			continue
		}
		g.writes++
		if g.writes%deleteEvery == 0 && len(g.inserted) > 0 {
			j := g.rng.Intn(len(g.inserted))
			victim := g.inserted[j]
			g.inserted[j] = g.inserted[len(g.inserted)-1]
			g.inserted = g.inserted[:len(g.inserted)-1]
			body, _ := json.Marshal(map[string]int64{"id": victim.id})
			out = append(out, op{kind: opDelete, path: routeDelete, body: body, id: victim.id, dep: victim.at, user: 8})
			continue
		}
		out = append(out, g.upsert(len(out)))
	}
	return out
}

// upsert draws a new point near a random corpus point, so it lands in
// a populated region of the graph.
func (g *ingestGen) upsert(at int) op {
	id := g.nextID
	g.nextID++
	base := g.in.ds.At(g.rng.Intn(g.in.ds.Len()))
	v := make([]float32, len(base))
	for j := range v {
		v[j] = base[j] + float32(g.rng.NormFloat64()*perturbScale)
	}
	o := op{path: routeUpsert, id: id, vec: v, dep: -1, user: 4 * len(v)}
	req := map[string]any{"id": id, "vector": v}
	if g.writes%2 == 1 {
		o.kind = opUpsertTags
		o.tags = tagsFor(id)
		req["tags"] = o.tags
		for k, val := range o.tags {
			o.user += len(k) + len(val)
		}
	} else {
		o.kind = opUpsertText
		o.text = commonText(g.rng) + fmt.Sprintf(" inserted%d", id)
		req["text"] = o.text
		o.user += len(o.text)
	}
	o.body, _ = json.Marshal(req)
	g.inserted = append(g.inserted, insert{at: at, id: id})
	return o
}

// schedule returns n Poisson arrival offsets at rate per second, in
// seconds from the phase start.
func schedule(seed int64, n int, rate float64) []float64 {
	rng := rand.New(rand.NewSource(seed*104729 + 11))
	out := make([]float64, n)
	t := 0.0
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = t
	}
	return out
}
