package main

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/fsx"
	"repro/internal/serve"
	"repro/internal/vec"
)

// The traced run times the gateway from outside: tracedBackend sits
// between serve.Server and serve.EngineBackend and records when each
// backend round (a batched search, a hybrid search or a mutation)
// starts and ends, keyed by what the request carried. Joining a
// request's client-side send and receive times with its round splits
// its latency into three spans that cover it exactly:
//
//	serve.wait_us     send → round start (decode, admission, queue, batch wait)
//	serve.backend_us  round start → round end
//	serve.encode_us   round end → last response byte read

// round is one backend call as seen by tracedBackend.
type round struct{ start, end time.Time }

// tracedBackend wraps *serve.EngineBackend with exactly the optional
// gateway interfaces EngineBackend implements, so tracing cannot change
// which routes the gateway serves (wrapper_test.go checks this).
type tracedBackend struct {
	inner *serve.EngineBackend

	mu     sync.Mutex
	rounds map[uint64][]round
	sizes  []int // queries per batched search round, in dispatch order
	// mutation durations by op kind
	mutDur map[opKind][]time.Duration
}

var (
	_ serve.FilteredBackend = (*tracedBackend)(nil)
	_ serve.HybridBackend   = (*tracedBackend)(nil)
	_ serve.Mutator         = (*tracedBackend)(nil)
	_ serve.TaggedMutator   = (*tracedBackend)(nil)
	_ serve.TextMutator     = (*tracedBackend)(nil)
	_ serve.VarzProvider    = (*tracedBackend)(nil)
	_ serve.WriteHealth     = (*tracedBackend)(nil)
)

func newTracedBackend(inner *serve.EngineBackend) *tracedBackend {
	return &tracedBackend{inner: inner, rounds: map[uint64][]round{}, mutDur: map[opKind][]time.Duration{}}
}

// Keys identify what a request carried, so the client side can find
// the round that served it.

func vecKey(q []float32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, x := range q {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(x))
		h.Write(b[:])
	}
	return h.Sum64()
}

func hybridKey(q []float32, text string) uint64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], vecKey(q))
	h.Write(b[:])
	h.Write([]byte(text))
	return h.Sum64()
}

func mutKey(kind opKind, id int64) uint64 {
	h := fnv.New64a()
	var b [9]byte
	b[0] = byte(kind)
	binary.LittleEndian.PutUint64(b[1:], uint64(id))
	h.Write(b[:])
	return h.Sum64()
}

// opKey is the key the round serving o was recorded under.
func opKey(in *inputs, o *op) uint64 {
	switch o.kind {
	case opSearch:
		return vecKey(in.queries.At(o.q))
	case opHybrid:
		return hybridKey(in.queries.At(o.q), o.text)
	default:
		return mutKey(o.kind, o.id)
	}
}

func (b *tracedBackend) record(keys []uint64, start time.Time) {
	r := round{start: start, end: time.Now()}
	b.mu.Lock()
	for _, k := range keys {
		b.rounds[k] = append(b.rounds[k], r)
	}
	b.mu.Unlock()
}

func (b *tracedBackend) batch(queries *vec.Dataset, start time.Time) {
	keys := make([]uint64, queries.Len())
	for i := range keys {
		keys[i] = vecKey(queries.At(i))
	}
	b.record(keys, start)
	b.mu.Lock()
	b.sizes = append(b.sizes, len(keys))
	b.mu.Unlock()
}

func (b *tracedBackend) mutation(kind opKind, id int64, start time.Time) {
	b.record([]uint64{mutKey(kind, id)}, start)
	b.mu.Lock()
	b.mutDur[kind] = append(b.mutDur[kind], time.Since(start))
	b.mu.Unlock()
}

// roundFor returns the latest recorded round under key that ended
// within [sent, done] of the phase started at start. joined reports a
// round that had started before the request was sent: the gateway's
// single-flight let the request join an identical search in progress,
// so its latency has no wait span of its own.
func (b *tracedBackend) roundFor(key uint64, start time.Time, r *result) (rd round, found, joined bool) {
	sent, done := start.Add(r.sent), start.Add(r.done)
	b.mu.Lock()
	defer b.mu.Unlock()
	rs := b.rounds[key]
	for i := len(rs) - 1; i >= 0; i-- {
		if !rs[i].end.After(done) && !rs[i].end.Before(sent) {
			return rs[i], true, rs[i].start.Before(sent)
		}
	}
	return round{}, false, false
}

// takeSizes returns and clears the batch sizes recorded so far.
func (b *tracedBackend) takeSizes() []int {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := b.sizes
	b.sizes = nil
	return s
}

func (b *tracedBackend) Dim() int  { return b.inner.Dim() }
func (b *tracedBackend) MaxK() int { return b.inner.MaxK() }

func (b *tracedBackend) SearchBatch(ctx context.Context, queries *vec.Dataset, k int) (serve.BatchOutput, error) {
	t0 := time.Now()
	out, err := b.inner.SearchBatch(ctx, queries, k)
	b.batch(queries, t0)
	return out, err
}

func (b *tracedBackend) SearchBatchFiltered(ctx context.Context, queries *vec.Dataset, k int, f *filter.Expr) (serve.BatchOutput, error) {
	t0 := time.Now()
	out, err := b.inner.SearchBatchFiltered(ctx, queries, k, f)
	b.batch(queries, t0)
	return out, err
}

func (b *tracedBackend) SearchHybrid(ctx context.Context, q []float32, text string, k int, opts core.HybridOptions) ([]core.HybridResult, error) {
	t0 := time.Now()
	out, err := b.inner.SearchHybrid(ctx, q, text, k, opts)
	b.record([]uint64{hybridKey(q, text)}, t0)
	return out, err
}

// Upsert is timed with the tagged upserts; the benchmark sends no plain
// ones.
func (b *tracedBackend) Upsert(v []float32, id int64) error {
	t0 := time.Now()
	err := b.inner.Upsert(v, id)
	b.mutation(opUpsertTags, id, t0)
	return err
}

func (b *tracedBackend) UpsertTagged(v []float32, id int64, tags map[string]string) error {
	t0 := time.Now()
	err := b.inner.UpsertTagged(v, id, tags)
	b.mutation(opUpsertTags, id, t0)
	return err
}

func (b *tracedBackend) UpsertText(v []float32, id int64, text string) error {
	t0 := time.Now()
	err := b.inner.UpsertText(v, id, text)
	b.mutation(opUpsertText, id, t0)
	return err
}

func (b *tracedBackend) Delete(id int64) error {
	t0 := time.Now()
	err := b.inner.Delete(id)
	b.mutation(opDelete, id, t0)
	return err
}

func (b *tracedBackend) WriteFailed() error   { return b.inner.WriteFailed() }
func (b *tracedBackend) Varz() map[string]any { return b.inner.Varz() }

// countingFS is the store's filesystem with every byte written and
// every file fsync counted and timed.
type countingFS struct {
	fsx.FS
	written atomic.Int64

	mu    sync.Mutex
	syncs []time.Duration
}

func newCountingFS() *countingFS { return &countingFS{FS: fsx.OS{}} }

func (c *countingFS) OpenFile(name string, flag int, perm os.FileMode) (fsx.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

// takeSyncs returns and clears the fsync durations recorded so far.
func (c *countingFS) takeSyncs() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.syncs
	c.syncs = nil
	return s
}

type countingFile struct {
	fsx.File
	fs *countingFS
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.written.Add(int64(n))
	return n, err
}

func (f *countingFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	d := time.Since(t0)
	f.fs.mu.Lock()
	f.fs.syncs = append(f.fs.syncs, d)
	f.fs.mu.Unlock()
	return err
}
