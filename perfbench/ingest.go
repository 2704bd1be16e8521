package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/filter"
	"repro/internal/fsx"
	"repro/internal/metrics"
	"repro/internal/store"
)

func mustFilter(s string) *filter.Expr {
	f, err := filter.Parse(s)
	if err != nil {
		panic(err) // the workloads' filters are constants
	}
	return f
}

// ingest IDs start far above the corpus, one range per phase.
const (
	openFirstID   = 1_000_000
	closedFirstID = 2_000_000
)

// heldOps are the held-out reads (knn and hybrid) sent before the store
// is closed and again after it is recovered.
func (b *bench) heldOps() []op {
	var ops []op
	for i := 0; i < 2*heldN; i++ {
		qi := ingestPool + i
		if i%2 == 0 {
			ops = append(ops, searchOp(b.in, qi, ""))
		} else {
			ops = append(ops, hybridOp(b.in, qi))
		}
	}
	return ops
}

// ingestWarm returns a read-only warm-up burst over the Zipf read
// pool, so the result cache starts in the state the mix keeps it in.
// The generator's writes are drawn but not sent.
func (b *bench) ingestWarm(burst int) []op {
	g := newIngestGen(b.in, int64(10+burst), 0)
	var ops []op
	for len(ops) < warmN {
		for _, o := range g.ops(1) {
			if !o.kind.isWrite() {
				ops = append(ops, o)
			}
		}
	}
	return ops
}

// sendAll answers ops one at a time, outside any timed phase.
func (b *bench) sendAll(c *client, ops []op) []answer {
	res, _ := c.closedLoop(ops, 0)
	for i := range res {
		if !res[i].ok() {
			b.check(fmt.Errorf("held-out read %d failed: status %d, %v", i, res[i].status, res[i].err))
		}
	}
	return b.parseReads(ops, res)
}

// runIngest drives the mixed read/write traffic against a durable
// dynamic engine, then closes the store without a checkpoint, recovers
// it with store.Open, and checks durability. The end-to-end run
// alternates closed-loop and open-loop segments like the read-only
// workloads; each segment draws its own ops, so a delete only ever
// removes an insert of its own segment.
func (b *bench) runIngest() error {
	s, cfs, err := b.setup()
	if err != nil {
		return err
	}
	defer func() { s.close() }()
	if b.traced {
		return b.tracedIngest(s, cfs)
	}
	per := b.openCount() / segments
	var closedSegs, openSegs [][]op
	for k := int64(0); k < segments; k++ {
		closedSegs = append(closedSegs, newIngestGen(b.in, 100+k, closedFirstID+k*100_000).ops(b.closedCount()/segments))
		openSegs = append(openSegs, newIngestGen(b.in, 200+k, openFirstID+k*100_000).ops(per))
	}
	c := newClient(s.gw.url)
	c.warm(b.ingestWarm(0))
	acked := newAckLog()
	var rates []float64
	var openRes [][]result
	closed := 0
	for k := range openSegs {
		res, el := c.closedLoop(closedSegs[k], b.closedDur()/segments)
		b.account(res)
		b.parseReads(closedSegs[k], res)
		acked.add(closedSegs[k], res)
		rates = append(rates, okRate(res, el))
		closed += len(res)

		ph := c.openLoop(openSegs[k], schedule(b.seed*segments+int64(k), per, b.spec.rate))
		b.account(ph.res)
		b.parseReads(openSegs[k], ph.res)
		acked.add(openSegs[k], ph.res)
		openRes = append(openRes, ph.res)
	}
	b.m["ops_per_s"] = median(rates)
	b.note("closed loop: %d segments, %d requests", segments, closed)
	b.latencies(openSegs, openRes)
	s, _, err = b.recoverAndCheck(s, c, acked, nil)
	return err
}

// recoverAndCheck sends the held-out reads, closes the store without a
// checkpoint and recovers it, then checks the recovered engine against
// the acknowledged writes, sends the held-out reads again (the answers
// must not change) and scores their knn half against exact truth over
// the live set. It returns the recovered stack and the seconds the
// recovery took. c is closed.
func (b *bench) recoverAndCheck(s *stack, c *client, acked *ackLog, fs fsx.FS) (*stack, float64, error) {
	held := b.heldOps()
	before := b.sendAll(c, held)
	c.close()
	r, recoverS, err := s.reopen(fs)
	if err != nil {
		return s, 0, err
	}
	b.check(checkDurable(r.eng, acked))
	c = newClient(r.gw.url)
	defer c.close()
	after := b.sendAll(c, held)
	var knn []op
	var knnAns []answer
	var sample []int
	changed := 0
	for i, o := range held {
		if !slices.Equal(before[i].ids, after[i].ids) {
			if changed == 0 {
				b.check(fmt.Errorf("held-out read %d answered %v before recovery, %v after", i, before[i].ids, after[i].ids))
			}
			changed++
		}
		if o.kind == opSearch {
			sample = append(sample, len(knn))
			knn = append(knn, o)
			knnAns = append(knnAns, after[i])
		}
	}
	if changed > 1 {
		b.check(fmt.Errorf("%d held-out reads changed across recovery in all", changed))
	}
	truth := truthFor(b.in, acked.liveSet(b.in.ds), knn)
	b.m["recall_at_10"] = meanRecall(knnAns, truth, sample)
	b.successRatio()
	return r, recoverS, nil
}

// tracedIngest runs the open loop first, through the traced gateway,
// so that the log the recovery replays is fixed by the seed, not by how
// fast a closed loop ran. It then measures recovery, and runs the
// closed loop untraced and traced against the recovered store.
func (b *bench) tracedIngest(s *stack, cfs *countingFS) error {
	var err error
	if b.m["store.snapshot_mb"], err = dirMB(s.dur.Dir()); err != nil {
		return err
	}
	openOps := newIngestGen(b.in, 1, openFirstID).ops(b.openCount())
	closedOps := newIngestGen(b.in, 2, closedFirstID).ops(b.closedCount())
	due := schedule(b.seed, len(openOps), b.spec.rate)

	tb := newTracedBackend(s.be)
	g, err := startGateway(tb)
	if err != nil {
		return err
	}
	defer g.stop()
	c := newClient(g.url)
	c.warm(b.ingestWarm(0))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	st0 := s.dur.Stats()
	cfs.takeSyncs()
	written0 := cfs.written.Load()
	before := g.srv.Stats().Snapshot()
	open := c.openLoop(openOps, due)
	after := g.srv.Stats().Snapshot()
	runtime.ReadMemStats(&ms1)
	b.account(open.res)
	b.latencies(split(openOps, open.res))
	b.parseReads(openOps, open.res)
	acked := newAckLog()
	acked.add(openOps, open.res)
	b.openLayers(tb, g, open, openOps, before, after)
	b.m["runtime.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	b.storeLayers(tb, cfs, st0, s.dur.Stats(), written0, openOps, open.res)
	if b.m["disk_mb"], err = dirMB(s.dur.Dir()); err != nil {
		return err
	}

	r, recoverS, err := b.recoverAndCheck(s, c, acked, cfs)
	s = r
	defer func() { s.close() }()
	if err != nil {
		return err
	}
	b.m["recover_s"] = recoverS
	replayed := s.dur.Stats().Replayed
	b.m["store.replayed"] = float64(replayed)
	// Recovering again after a checkpoint replays nothing; the
	// difference is the replay cost.
	if err := s.dur.Checkpoint(); err != nil {
		return err
	}
	r, noReplayS, err := s.reopen(cfs)
	if err != nil {
		return err
	}
	s = r
	if replayed > 0 {
		b.m["store.replay_us_per_record"] = (recoverS - noReplayS) * 1e6 / float64(replayed)
	}

	c0 := newClient(s.gw.url)
	defer c0.close()
	c0.warm(b.ingestWarm(1))
	runtime.ReadMemStats(&ms0)
	closed, el := c0.closedLoop(closedOps, b.closedDur())
	runtime.ReadMemStats(&ms1)
	b.account(closed)
	b.parseReads(closedOps, closed)
	b.m["runtime.alloc_bytes_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(len(closed))
	if err := b.ingestTracedClosed(s, windowedRate(closed, el)); err != nil {
		return err
	}
	b.ingestCoreLayers(s)
	b.successRatio()
	return nil
}

// ingestTracedClosed runs a second closed loop through a traced
// gateway over the recovered store, for the tracing overhead and the
// batch sizes. Its writes use their own ID range.
func (b *bench) ingestTracedClosed(s *stack, untracedRate float64) error {
	tb := newTracedBackend(s.be)
	g1, err := startGateway(tb)
	if err != nil {
		return err
	}
	defer g1.stop()
	c1 := newClient(g1.url)
	defer c1.close()
	ops := newIngestGen(b.in, 3, closedFirstID+1_000_000).ops(b.closedCount())
	c1.warm(b.ingestWarm(2))
	tb.takeSizes()
	before := g1.srv.Stats().Snapshot()
	closed, el := c1.closedLoop(ops, b.closedDur())
	after := g1.srv.Stats().Snapshot()
	b.account(closed)
	b.parseReads(ops, closed)
	b.m["trace.overhead_pct"] = 100 * (untracedRate - windowedRate(closed, el)) / untracedRate
	b.m["serve.batch_size"] = mean(intsToFloats(tb.takeSizes()))
	if db := after.Batches - before.Batches; db > 0 {
		b.m["serve.stats_batch_size"] = float64(after.Queries-before.Queries) / float64(db)
	}
	return nil
}

// storeLayers derives the store metrics of the open-loop phase from
// the traced backend's mutation timings, the counting filesystem and
// the store's own counters.
func (b *bench) storeLayers(tb *tracedBackend, cfs *countingFS, st0, st1 store.Snapshot, written0 int64, ops []op, res []result) {
	tb.mu.Lock()
	tags, text := tb.mutDur[opUpsertTags], tb.mutDur[opUpsertText]
	tb.mu.Unlock()
	var ups []float64
	for _, d := range append(slices.Clone(tags), text...) {
		ups = append(ups, us(d))
	}
	b.m["store.upsert_us"] = mean(ups)
	b.m["lexical.set_us"] = meanDur(text) - meanDur(tags)
	var syncs []float64
	for _, d := range cfs.takeSyncs() {
		syncs = append(syncs, us(d))
	}
	b.m["store.fsync_us"] = metrics.Summarize(syncs).P99
	if f := st1.WALFsyncs - st0.WALFsyncs; f > 0 {
		b.m["store.records_per_fsync"] = float64(st1.WALAppends-st0.WALAppends) / float64(f)
	}
	user := 0
	for i := range res {
		if ops[i].kind.isWrite() && res[i].ok() {
			user += ops[i].user
		}
	}
	if user > 0 {
		b.m["store.write_amp"] = float64(cfs.written.Load()-written0) / float64(user)
	}
}

func meanDur(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = us(d)
	}
	return mean(xs)
}

// ingestCoreLayers replays the read pool's knn and hybrid queries
// directly against the recovered dynamic engine.
func (b *bench) ingestCoreLayers(s *stack) {
	b.kernels()
	var knn, hyb []op
	for qi := 0; qi < ingestPool; qi++ {
		knn = append(knn, searchOp(b.in, qi, ""))
		hyb = append(hyb, hybridOp(b.in, qi))
	}
	t := searchReplay(s.eng, b.in, knn[:replayKNN], topK)
	b.m["core.search_us"] = t.us
	b.traversalMetrics(t, "")
	b.kernelShare(t, t.us)
	b.hybridReplay(s.eng, hyb[:replayHybrid])
}
