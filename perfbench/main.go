// Command perfbench is the repository's load benchmark. It builds the
// single-process serving stack (serve.NewServer over
// serve.EngineBackend, with annserve's defaults), loads it over
// loopback HTTP with one of three traffic mixes, checks every answer,
// and prints one JSON result line.
//
//	perfbench -workload knn -seed 1 -seconds 12 -trace 0
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it
// reports the per-layer metrics, timed from outside each layer. See
// README.md for the workloads and for which layer metric should move
// which end-to-end metric. run.py builds and runs it from a checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// spec sizes one workload. rate is the open-loop arrival rate, frozen
// at about a quarter of the closed-loop capacity this benchmark
// measured when it was introduced (2-core x86-64 VM, GOMAXPROCS=2): at
// half, the queueing for the two connections made latency swing with
// the shared machine's speed. peak only sizes the pre-encoded
// closed-loop op pool and is far above capacity.
type spec struct {
	rate float64
	peak float64
}

var workloads = map[string]spec{
	"knn":    {rate: 160, peak: 4000},
	"hybrid": {rate: 90, peak: 2500},
	"ingest": {rate: 140, peak: 4000},
}

// setupRuns is how many times a run sets the stack up; setup_s is the
// median, and the last set-up is the one served.
const setupRuns = 2

// warmN is the size of each warm-up burst; a burst stops after
// warmTime.
const (
	warmN    = 200
	warmTime = 500 * time.Millisecond
)

// recallSample is how many open-loop reads are scored against exact
// truth on the read-only workloads.
const recallSample = 500

// heldN is the number of held-out queries of each read kind the ingest
// workload sends before and after its store is reopened.
const heldN = 100

type unit struct{ name, unit string }

var endToEnd = []unit{
	{"setup_s", "s"},
	{"ops_per_s", "ops/s"},
	{"read_p50_ms", "ms"},
	{"recall_at_10", "ratio"},
	{"success_ratio", "ratio"},
	{"heap_mb", "MB"},
}

var perLayer = []unit{
	{"read_p99_ms", "ms"},
	{"serve.wait_us", "us"},
	{"serve.backend_us", "us"},
	{"serve.encode_us", "us"},
	{"serve.span_coverage", "ratio"},
	{"serve.batch_size", "queries"},
	{"serve.stats_batch_size", "queries"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.refused", "count"},
	{"core.search_us", "us"},
	{"core.filtered_us.t1", "us"},
	{"core.filtered_us.t10", "us"},
	{"core.hybrid_us", "us"},
	{"core.hybrid.vector_us", "us"},
	{"lexical.search_us", "us"},
	{"fusion.rrf_us", "us"},
	{"core.hybrid.rescore_us", "us"},
	{"hnsw.dist_comps", "count"},
	{"hnsw.quant_comps", "count"},
	{"hnsw.hops", "count"},
	{"hnsw.reranked", "count"},
	{"hnsw.dist_comps.t1", "count"},
	{"hnsw.quant_comps.t1", "count"},
	{"hnsw.hops.t1", "count"},
	{"hnsw.reranked.t1", "count"},
	{"hnsw.dist_comps.t10", "count"},
	{"hnsw.quant_comps.t10", "count"},
	{"hnsw.hops.t10", "count"},
	{"hnsw.reranked.t10", "count"},
	{"vec.l2_ns", "ns"},
	{"vec.sq8_ns", "ns"},
	{"vec.kernel_share", "ratio"},
	{"lexical.postings_per_query", "count"},
	{"lexical.useful_ratio", "ratio"},
	{"lexical.set_us", "us"},
	{"store.upsert_us", "us"},
	{"store.fsync_us", "us"},
	{"store.records_per_fsync", "count"},
	{"store.write_amp", "ratio"},
	{"store.snapshot_mb", "MB"},
	{"store.replayed", "count"},
	{"store.replay_us_per_record", "us"},
	{"write_p50_ms", "ms"},
	{"write_p99_ms", "ms"},
	{"recover_s", "s"},
	{"disk_mb", "MB"},
	{"setup.build_s", "s"},
	{"setup.attrs_s", "s"},
	{"setup.freeze_s", "s"},
	{"setup.snapshot_s", "s"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_pause_ms", "ms"},
	{"loadgen.late_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

func main() {
	var (
		workload = flag.String("workload", "", "traffic mix: knn, hybrid or ingest")
		seed     = flag.Int64("seed", 1, "input seed; every input of the run derives from it")
		seconds  = flag.Int("seconds", 12, "measured seconds: a quarter closed-loop, the rest open-loop")
		trace    = flag.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
		workdir  = flag.String("workdir", ".bench_build/work", "directory for store files (emptied by the run)")
	)
	flag.Parse()
	sp, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload knn|hybrid|ingest, -seconds ≥ 1, -trace 0|1")
		os.Exit(2)
	}
	b := &bench{
		w:       *workload,
		spec:    sp,
		seed:    *seed,
		seconds: float64(*seconds),
		traced:  *trace == 1,
		workdir: filepath.Join(*workdir, fmt.Sprintf("%s-%d-%d", *workload, *seed, os.Getpid())),
		m:       map[string]float64{},
	}
	err := b.run()
	if rerr := os.RemoveAll(b.workdir); err == nil {
		err = rerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if code := b.report(os.Stdout); code != 0 {
		os.Exit(code)
	}
}

// report prints the environment stamp, any failed checks and, last,
// the result line. It returns the exit code: 1 when a check failed.
func (b *bench) report(out *os.File) int {
	stamp, _ := json.Marshal(map[string]any{
		"workload":   b.w,
		"seed":       b.seed,
		"seconds":    b.seconds,
		"trace":      b.traced,
		"commit":     commit(),
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
	})
	names := endToEnd
	if b.traced {
		names = perLayer
	}
	metrics := map[string]any{}
	for _, u := range names {
		v, ok := b.m[u.name]
		if !ok {
			b.problems = append(b.problems, "metric not measured: "+u.name)
		}
		metrics[u.name] = map[string]any{"value": v, "unit": u.unit}
	}
	fmt.Fprintf(out, "env %s\n", stamp)
	for _, n := range b.notes {
		fmt.Fprintln(out, n)
	}
	for _, p := range b.problems {
		fmt.Fprintf(out, "check failed: %s\n", p)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(b.problems) == 0,
		"attempted": b.attempted,
		"failed":    b.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", line)
	if len(b.problems) > 0 {
		return 1
	}
	return 0
}

// commit names the source revision, which run.py passes in
// $BENCH_COMMIT when the checkout is a git repository.
func commit() string {
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
