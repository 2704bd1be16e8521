// Package clustertest is the reusable in-repo cluster harness: it
// spawns a gateway plus N worker shards (with optional replicas) in one
// process, wired over real loopback TCP, so end-to-end multi-node
// behavior — scatter-gather merging, shard death mid-query, replica
// takeover, cache invalidation on topology change — is testable under
// `go test -race` with no external processes or ports.
package clustertest

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/vec"
)

// Worker is one shard process stand-in: an engine over its slice of
// the corpus, served on loopback TCP via the shard RPC.
type Worker struct {
	Shard  int
	Addr   string
	Engine *core.Engine
	srv    *cluster.ShardServer
}

// Kill tears the worker's listener and connections down, simulating a
// process crash. Idempotent.
func (w *Worker) Kill() { w.srv.Close() }

// StartWorker serves eng as shard index `shard` on a fresh loopback
// port and returns the running worker.
func StartWorker(tb testing.TB, shard int, eng *core.Engine) *Worker {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	srv := cluster.NewShardServer(ln, cluster.ShardInfo{
		Shard:  shard,
		Dim:    eng.Dim(),
		Points: int64(eng.Len()),
	}, eng.ShardHandler(0))
	w := &Worker{Shard: shard, Addr: srv.Addr(), Engine: eng, srv: srv}
	tb.Cleanup(w.Kill)
	return w
}

// Options configures a test cluster.
type Options struct {
	// Shards is the number of data shards (default 2).
	Shards int
	// Replicas is the number of workers per shard (default 1).
	Replicas int
	// Dim and N shape the synthetic corpus (defaults 8 and 600) when
	// Corpus is nil.
	Dim, N int
	// Seed makes the corpus and the shard engines reproducible.
	Seed int64
	// Corpus overrides the synthetic corpus; it is sharded contiguously
	// with global IDs preserved.
	Corpus *vec.Dataset
	// ShardData overrides sharding entirely: ShardData[i] is shard i's
	// dataset. Shards/Corpus/Dim/N are ignored. Lets tests stage
	// duplicate-ID layouts where shards overlap.
	ShardData []*vec.Dataset
	// EngineConfig builds each shard's engine; zero Partitions defaults
	// to 2.
	EngineConfig core.Config
	// Router tunes the gateway's shard router.
	Router serve.RouterConfig
	// Server tunes the HTTP gateway.
	Server serve.ServerConfig
}

// Cluster is a running gateway plus its worker fleet.
type Cluster struct {
	// Workers[s][r] is replica r of shard s, in shard-map order.
	Workers [][]*Worker
	// Corpus is the full dataset the shards jointly serve.
	Corpus *vec.Dataset
	Router *serve.Router
	Server *serve.Server
	HTTP   *httptest.Server
}

// RandomDataset builds a reproducible uniform corpus with IDs 0..n-1.
func RandomDataset(dim, n int, seed int64) *vec.Dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := vec.NewDataset(dim, n)
	for i := 0; i < n; i++ {
		v := make([]float32, dim)
		for j := range v {
			v[j] = rng.Float32()
		}
		ds.Append(v, int64(i))
	}
	return ds
}

// RandomQueries builds nq query vectors from seed.
func RandomQueries(dim, nq int, seed int64) *vec.Dataset {
	return RandomDataset(dim, nq, seed)
}

// ShardDatasets splits ds into n contiguous shards (global IDs
// preserved), the layout annbuild/annworker would produce.
func ShardDatasets(ds *vec.Dataset, n int) []*vec.Dataset {
	out := make([]*vec.Dataset, n)
	per := (ds.Len() + n - 1) / n
	for i := 0; i < n; i++ {
		lo := i * per
		hi := lo + per
		if hi > ds.Len() {
			hi = ds.Len()
		}
		out[i] = ds.Slice(lo, hi)
	}
	return out
}

func (o *Options) fill() {
	if o.Shards <= 0 {
		o.Shards = 2
	}
	if o.Replicas <= 0 {
		o.Replicas = 1
	}
	if o.Dim <= 0 {
		o.Dim = 8
	}
	if o.N <= 0 {
		o.N = 600
	}
	if o.EngineConfig.Partitions <= 0 {
		o.EngineConfig.Partitions = 2
	}
	if o.EngineConfig.Seed == 0 {
		o.EngineConfig.Seed = o.Seed + 1
	}
	if o.Server.Batcher.MaxBatch == 0 {
		o.Server.Batcher = serve.BatcherConfig{
			MaxBatch: 32, QueueDepth: 256,
		}
	}
}

// Start brings up the cluster: shard engines, one worker per replica,
// the router dialed over loopback TCP, and the HTTP gateway. Cleanup is
// registered on tb.
func Start(tb testing.TB, opts Options) *Cluster {
	tb.Helper()
	opts.fill()

	shardData := opts.ShardData
	corpus := opts.Corpus
	if shardData == nil {
		if corpus == nil {
			corpus = RandomDataset(opts.Dim, opts.N, opts.Seed)
		}
		shardData = ShardDatasets(corpus, opts.Shards)
	} else if corpus == nil {
		corpus = vec.NewDataset(shardData[0].Dim, 0)
		for _, sd := range shardData {
			corpus.AppendAll(sd)
		}
	}

	c := &Cluster{Corpus: corpus}
	groups := make([][]string, len(shardData))
	for s, sd := range shardData {
		if sd.Len() == 0 {
			tb.Fatalf("shard %d is empty; use a bigger corpus or fewer shards", s)
		}
		eng, err := core.NewEngine(sd.Clone(), opts.EngineConfig)
		if err != nil {
			tb.Fatalf("shard %d engine: %v", s, err)
		}
		reps := make([]*Worker, opts.Replicas)
		for r := 0; r < opts.Replicas; r++ {
			// Replicas share the built engine — same data, separate
			// listener, exactly what a restarted copy would serve.
			reps[r] = StartWorker(tb, s, eng)
			groups[s] = append(groups[s], reps[r].Addr)
		}
		c.Workers = append(c.Workers, reps)
	}

	router, err := serve.NewRouter(serve.ShardMap{Groups: groups}, opts.Router)
	if err != nil {
		tb.Fatalf("router: %v", err)
	}
	tb.Cleanup(func() { router.Close() })
	c.Router = router

	c.Server = serve.NewServer(router, opts.Server)
	c.HTTP = httptest.NewServer(c.Server.Handler())
	tb.Cleanup(c.HTTP.Close)
	return c
}

// SearchResponse mirrors the gateway's /v1/search JSON body.
type SearchResponse struct {
	K                int   `json:"k"`
	Degraded         bool  `json:"degraded"`
	FailedPartitions []int `json:"failed_partitions"`
	Results          []struct {
		IDs    []int64   `json:"ids"`
		Dists  []float32 `json:"dists"`
		Cached bool      `json:"cached"`
	} `json:"results"`
}

// Search POSTs queries to the gateway and decodes the response; non-200
// statuses fail the test.
func (c *Cluster) Search(tb testing.TB, queries [][]float32, k int) SearchResponse {
	tb.Helper()
	resp, body := c.SearchRaw(tb, queries, k)
	if resp.StatusCode != http.StatusOK {
		tb.Fatalf("search: HTTP %d: %s", resp.StatusCode, body)
	}
	var out SearchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		tb.Fatalf("search: bad body %q: %v", body, err)
	}
	return out
}

// SearchRaw POSTs queries and returns the raw response for tests that
// assert on status codes.
func (c *Cluster) SearchRaw(tb testing.TB, queries [][]float32, k int) (*http.Response, []byte) {
	tb.Helper()
	req := map[string]any{"queries": queries, "k": k}
	b, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	resp, err := c.HTTP.Client().Post(c.HTTP.URL+"/v1/search", "application/json", bytes.NewReader(b))
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		tb.Fatal(err)
	}
	return resp, body
}

// Varz fetches and decodes the gateway's /varz document.
func (c *Cluster) Varz(tb testing.TB) map[string]any {
	tb.Helper()
	resp, err := c.HTTP.Client().Get(c.HTTP.URL + "/varz")
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		tb.Fatalf("varz: HTTP %d", resp.StatusCode)
	}
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		tb.Fatal(err)
	}
	return doc
}

// WaitTopologyVersion blocks until the router's topology version
// reaches at least v (worker deaths are detected asynchronously by the
// connection watchers).
func (c *Cluster) WaitTopologyVersion(tb testing.TB, v uint64, timeout time.Duration) {
	tb.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if c.Router.TopologyVersion() >= v {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	tb.Fatalf("topology version still %d, want >= %d after %v",
		c.Router.TopologyVersion(), v, timeout)
}

// Rows converts a query dataset into the [][]float32 the HTTP API takes.
func Rows(ds *vec.Dataset) [][]float32 {
	rows := make([][]float32, ds.Len())
	for i := range rows {
		rows[i] = ds.At(i)
	}
	return rows
}
