package main

import (
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/fsx"
	"repro/internal/metrics"
	"repro/internal/serve"
)

// bench is one run of one workload.
type bench struct {
	w       string
	spec    spec
	seed    int64
	seconds float64
	traced  bool
	workdir string

	in *inputs
	m  map[string]float64

	attempted, failed int
	problems          []string
	notes             []string // sample counts, printed before the result
}

func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

func (b *bench) check(err error) {
	if err != nil {
		b.problems = append(b.problems, err.Error())
	}
}

func (b *bench) closedDur() time.Duration {
	return time.Duration(b.seconds / 4 * float64(time.Second))
}

// openCount is the open-loop phase's operation count: fixed by the
// rate and the run length, not by how fast the program answers.
func (b *bench) openCount() int { return int(math.Round(b.spec.rate * b.seconds * 3 / 4)) }

func (b *bench) closedCount() int {
	return int(math.Ceil(b.spec.peak * b.closedDur().Seconds()))
}

func (b *bench) run() error {
	nq := 3*warmN + b.closedCount() + b.openCount()
	if b.w == "ingest" {
		nq = ingestPool + 2*heldN
	}
	var err error
	if b.in, err = genInputs(b.seed, corpusN, nq, b.w == "hybrid" || b.w == "ingest"); err != nil {
		return err
	}
	if err := os.MkdirAll(b.workdir, 0o755); err != nil {
		return err
	}
	if b.traced {
		// A layer the workload does not exercise reports 0.
		for _, u := range perLayer {
			b.m[u.name] = 0
		}
	}
	if b.w == "ingest" {
		return b.runIngest()
	}
	return b.runReadOnly()
}

// setup sets the stack up setupRuns times, keeps the last one, and
// records setup_s (median total), the per-step medians and heap_mb, the
// live heap the kept stack adds after a forced GC.
func (b *bench) setup() (*stack, *countingFS, error) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc
	var total, build, attrs, freeze, snap []float64
	var keep *stack
	var keepFS *countingFS
	for i := 0; i < setupRuns; i++ {
		dir := filepath.Join(b.workdir, fmt.Sprintf("store-%d", i))
		var cfs *countingFS
		var fs fsx.FS // nil: the store's default, the real OS
		if b.traced && b.w == "ingest" {
			cfs = newCountingFS()
			fs = cfs
		}
		runtime.GC()
		s, st, err := buildStack(b.w, b.in, dir, fs)
		if err != nil {
			return nil, nil, err
		}
		total = append(total, st.total)
		build = append(build, st.build)
		attrs = append(attrs, st.attrs)
		freeze = append(freeze, st.freeze)
		snap = append(snap, st.snapshot)
		if i < setupRuns-1 {
			if err := s.close(); err != nil {
				return nil, nil, err
			}
			if err := os.RemoveAll(dir); err != nil {
				return nil, nil, err
			}
			continue
		}
		keep, keepFS = s, cfs
	}
	b.m["setup_s"] = median(total)
	b.m["setup.build_s"] = median(build)
	b.m["setup.attrs_s"] = median(attrs)
	b.m["setup.freeze_s"] = median(freeze)
	b.m["setup.snapshot_s"] = median(snap)
	runtime.GC()
	runtime.ReadMemStats(&ms)
	b.m["heap_mb"] = (float64(ms.HeapAlloc) - float64(base)) / (1 << 20)
	return keep, keepFS, nil
}

// account adds a timed phase's operations to attempted/failed.
func (b *bench) account(res []result) {
	for i := range res {
		b.attempted++
		if !res[i].ok() {
			b.failed++
		}
	}
}

func (b *bench) successRatio() {
	if b.attempted > 0 {
		b.m["success_ratio"] = float64(b.attempted-b.failed) / float64(b.attempted)
	}
}

// parseReads checks every read answer of a phase and returns them
// aligned with ops (zero answers for writes and failed reads).
func (b *bench) parseReads(ops []op, res []result) []answer {
	out := make([]answer, len(res))
	bad := 0
	for i := range res {
		if ops[i].kind.isWrite() || !res[i].ok() {
			continue
		}
		a, err := parseRead(&ops[i], &res[i])
		if err != nil && bad == 0 {
			b.check(err)
		}
		if err != nil {
			bad++
		}
		out[i] = a
	}
	if bad > 1 {
		b.check(fmt.Errorf("%d malformed read answers in all", bad))
	}
	return out
}

// segments is how many pieces a run's measurement is cut into. The
// end-to-end run alternates closed-loop and open-loop segments; the
// traced run cuts its continuous loops into windows. Each figure is the
// median over the segments, so a burst of slowness on the shared
// machine moves one or two segments, not the run's figure.
const segments = 6

// latencies records the read latencies of the open-loop segments, each
// a slice of requests in due order: the medians over segments of their
// 50th and 99th percentiles. Writes (ingest) are pooled.
func (b *bench) latencies(segs [][]op, res [][]result) {
	var p50, p99, writes []float64
	for k := range segs {
		var reads []float64
		for i := range res[k] {
			if segs[k][i].kind.isWrite() {
				writes = append(writes, res[k][i].latencyMS())
			} else {
				reads = append(reads, res[k][i].latencyMS())
			}
		}
		p50 = append(p50, quantile(reads, 0.5))
		p99 = append(p99, quantile(reads, 0.99))
	}
	b.m["read_p50_ms"] = median(p50)
	b.m["read_p99_ms"] = median(p99)
	b.m["write_p50_ms"] = quantile(writes, 0.5)
	b.m["write_p99_ms"] = quantile(writes, 0.99)
	n := 0
	for k := range res {
		n += len(res[k])
	}
	b.note("open loop: %d segments, %d requests, %d of them writes", len(res), n, len(writes))
}

// split cuts ops and their results into equal consecutive segments.
func split(ops []op, res []result) ([][]op, [][]result) {
	var so [][]op
	var sr [][]result
	for k := 0; k < segments; k++ {
		lo, hi := k*len(res)/segments, (k+1)*len(res)/segments
		so = append(so, ops[lo:hi])
		sr = append(sr, res[lo:hi])
	}
	return so, sr
}

// quantile interpolates the q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// okRate is the operations answered 200 per second of elapsed.
func okRate(res []result, elapsed time.Duration) float64 {
	n := 0
	for i := range res {
		if res[i].ok() {
			n++
		}
	}
	return float64(n) / elapsed.Seconds()
}

// windowedRate is the median, over equal windows of one continuous
// closed loop, of the operations answered per second.
func windowedRate(res []result, elapsed time.Duration) float64 {
	width := elapsed / segments
	var counts [segments]int
	for i := range res {
		if res[i].ok() && width > 0 {
			counts[min(int(res[i].done/width), segments-1)]++
		}
	}
	rates := make([]float64, segments)
	for k, n := range counts {
		rates[k] = float64(n) / width.Seconds()
	}
	return median(rates)
}

// readPhaseOps lays the read-only query pool out as three warm-up
// bursts, the closed-loop pool and the open-loop ops.
func (b *bench) readPhaseOps() (warm [3][]op, closed, open []op) {
	for i := range warm {
		warm[i] = readOps(b.w, b.in, i*warmN, (i+1)*warmN)
	}
	lo := 3 * warmN
	closed = readOps(b.w, b.in, lo, lo+b.closedCount())
	lo += b.closedCount()
	open = readOps(b.w, b.in, lo, lo+b.openCount())
	return
}

func (b *bench) runReadOnly() error {
	s, _, err := b.setup()
	if err != nil {
		return err
	}
	defer s.close()
	warm, closedOps, openOps := b.readPhaseOps()
	c0 := newClient(s.gw.url)
	defer c0.close()
	c0.warm(warm[0])
	if b.traced {
		return b.tracedReadOnly(s, c0, warm[1:], closedOps, openOps)
	}

	// Alternate closed-loop and open-loop segments.
	per := len(openOps) / segments
	var rates []float64
	var openSegs [][]op
	var openRes [][]result
	next := 0
	for k := 0; k < segments; k++ {
		res, el := c0.closedLoop(closedOps[next:], b.closedDur()/segments)
		b.account(res)
		b.parseReads(closedOps[next:], res)
		next += len(res)
		rates = append(rates, okRate(res, el))

		ops := openOps[k*per : (k+1)*per]
		ph := c0.openLoop(ops, schedule(b.seed*segments+int64(k), len(ops), b.spec.rate))
		b.account(ph.res)
		openSegs = append(openSegs, ops)
		openRes = append(openRes, ph.res)
	}
	b.m["ops_per_s"] = median(rates)
	b.note("closed loop: %d segments, %d requests", segments, next)
	b.latencies(openSegs, openRes)

	// Score the first recallSample open-loop reads against exact truth.
	var sample []op
	var answers []answer
	for k := range openSegs {
		ans := b.parseReads(openSegs[k], openRes[k])
		for i := range ans {
			if len(sample) < recallSample && openRes[k][i].ok() {
				sample = append(sample, openSegs[k][i])
				answers = append(answers, ans[i])
			}
		}
	}
	truth := truthFor(b.in, b.in.ds, sample)
	all := make([]int, len(sample))
	for i := range all {
		all[i] = i
	}
	b.m["recall_at_10"] = meanRecall(answers, truth, all)
	b.successRatio()
	return nil
}

// tracedReadOnly runs the closed loop untraced and then traced (the
// difference is the tracing overhead, and the answers must be
// identical), then the open loop traced, and replays queries against
// the engine for the engine, traversal, kernel and lexical layers.
func (b *bench) tracedReadOnly(s *stack, c0 *client, warm [][]op, closedOps, openOps []op) error {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	closed0, el0 := c0.closedLoop(closedOps, b.closedDur())
	runtime.ReadMemStats(&ms1)
	b.account(closed0)
	untracedRate := windowedRate(closed0, el0)
	untraced := b.parseReads(closedOps, closed0)
	b.m["runtime.alloc_bytes_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(len(closed0))

	tb := newTracedBackend(s.be)
	g1, err := startGateway(tb)
	if err != nil {
		return err
	}
	defer g1.stop()
	c1 := newClient(g1.url)
	defer c1.close()
	due := schedule(b.seed, len(openOps), b.spec.rate)
	if err := b.tracedPhases(tb, g1, c1, warm, closedOps, openOps, due, untraced, untracedRate); err != nil {
		return err
	}
	b.coreLayers(s, openOps)
	b.successRatio()
	return nil
}

// tracedPhases runs the closed loop through the traced gateway, checks
// its answers against the untraced ones, runs the open loop through
// it, and derives the gateway, runtime and load-generator metrics.
func (b *bench) tracedPhases(tb *tracedBackend, g1 *gateway, c1 *client, warm [][]op, closedOps, openOps []op, due []float64, untraced []answer, untracedRate float64) error {
	c1.warm(warm[0])
	tb.takeSizes()
	before := g1.srv.Stats().Snapshot()
	closed1, el1 := c1.closedLoop(closedOps, b.closedDur())
	after := g1.srv.Stats().Snapshot()
	b.account(closed1)
	b.m["trace.overhead_pct"] = 100 * (untracedRate - windowedRate(closed1, el1)) / untracedRate
	b.m["serve.batch_size"] = mean(intsToFloats(tb.takeSizes()))
	if db := after.Batches - before.Batches; db > 0 {
		b.m["serve.stats_batch_size"] = float64(after.Queries-before.Queries) / float64(db)
	}
	traced := b.parseReads(closedOps, closed1)
	for i := 0; i < min(len(traced), len(untraced)); i++ {
		if closed1[i].ok() && !slices.Equal(traced[i].ids, untraced[i].ids) {
			b.check(fmt.Errorf("traced answer to op %d differs from the untraced one", i))
			break
		}
	}

	c1.warm(warm[1])
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	before = g1.srv.Stats().Snapshot()
	open := c1.openLoop(openOps, due)
	after = g1.srv.Stats().Snapshot()
	runtime.ReadMemStats(&ms1)
	b.account(open.res)
	b.parseReads(openOps, open.res)
	b.latencies(split(openOps, open.res))
	b.openLayers(tb, g1, open, openOps, before, after)
	b.m["runtime.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	return nil
}

// openLayers derives the gateway spans, cache and refusal counts, and
// the load generator's lateness from a traced open-loop phase.
func (b *bench) openLayers(tb *tracedBackend, g1 *gateway, open phase, ops []op, before, after serve.Snapshot) {
	var wait, backend, encode, late []float64
	want, matched := 0, 0
	refused := 0
	for i := range open.res {
		r := &open.res[i]
		late = append(late, float64(r.sent-r.due)/1e6)
		if r.status == http.StatusTooManyRequests || r.status == http.StatusServiceUnavailable {
			refused++
		}
		if !r.ok() || cachedAnswer(&ops[i], r) {
			continue
		}
		rd, found, joined := tb.roundFor(opKey(b.in, &ops[i]), open.start, r)
		if joined {
			continue
		}
		want++
		if !found {
			continue
		}
		matched++
		sent, done := open.start.Add(r.sent), open.start.Add(r.done)
		w, bk, e := rd.start.Sub(sent), rd.end.Sub(rd.start), done.Sub(rd.end)
		if w+bk+e != r.done-r.sent {
			b.check(fmt.Errorf("spans of op %d do not sum to its latency", i))
		}
		wait = append(wait, us(w))
		backend = append(backend, us(bk))
		encode = append(encode, us(e))
	}
	b.m["serve.wait_us"] = mean(wait)
	b.m["serve.backend_us"] = mean(backend)
	b.m["serve.encode_us"] = mean(encode)
	if want > 0 {
		b.m["serve.span_coverage"] = float64(matched) / float64(want)
	}
	b.m["serve.refused"] = float64(refused)
	hits := (after.CacheHits + after.HybridCacheHits) - (before.CacheHits + before.HybridCacheHits)
	reqs := (after.Requests + after.HybridRequests) - (before.Requests + before.HybridRequests)
	if reqs > 0 {
		b.m["serve.cache_hit_ratio"] = float64(hits) / float64(reqs)
	}
	b.m["loadgen.late_ms"] = metrics.Summarize(late).P99
}

// cachedAnswer reports whether a read was answered from the gateway's
// result cache, so no backend round served it.
func cachedAnswer(o *op, r *result) bool {
	if o.kind.isWrite() {
		return false
	}
	a, err := parseRead(o, r)
	return err == nil && a.cached
}

func intsToFloats(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}
