package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/vec"
)

// testEngine builds a small real engine: 400 points, dim 8, 4
// partitions.
func testEngine(t *testing.T) *core.Engine {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	ds := vec.NewDataset(8, 400)
	for i := 0; i < 400; i++ {
		v := make([]float32, 8)
		for j := range v {
			v[j] = rng.Float32()
		}
		ds.Append(v, int64(i))
	}
	cfg := core.DefaultConfig(4)
	e, err := core.NewEngine(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func postSearch(t *testing.T, client *http.Client, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url+"/v1/search", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func randQuery(rng *rand.Rand, dim int) []float32 {
	q := make([]float32, dim)
	for j := range q {
		q[j] = rng.Float32()
	}
	return q
}

// gatedBackend wraps a backend so a test can hold rounds inside it:
// every SearchBatch call signals entered, then takes one token from
// block (closing block releases every call).
type gatedBackend struct {
	Backend
	entered chan struct{}
	block   chan struct{}
}

func (g *gatedBackend) SearchBatch(ctx context.Context, qs *vec.Dataset, k int) (BatchOutput, error) {
	g.entered <- struct{}{}
	<-g.block
	return g.Backend.SearchBatch(ctx, qs, k)
}

// defaultSlots is the number of rounds the single-backend server s runs
// at once.
func defaultSlots(s *Server) int { return s.tenants[DefaultCollection].batcher.slots }

// wedgeHTTP holds every in-flight slot of s with one search each
// (distinct queries tagged by q[0] = -1, -2, …), waiting for each to
// enter the backend before sending the next. The returned channel
// closes when all of them have answered.
func wedgeHTTP(t *testing.T, s *Server, ts *httptest.Server, dim int, entered <-chan struct{}) <-chan struct{} {
	t.Helper()
	var wg sync.WaitGroup
	for i := 0; i < defaultSlots(s); i++ {
		q := make([]float32, dim)
		q[0] = float32(-1 - i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, data := postSearch(t, ts.Client(), ts.URL, map[string]any{"query": q, "k": 1})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("wedged request finished %d: %s", resp.StatusCode, data)
			}
		}()
		<-entered
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	return done
}

// TestServerEndToEnd is the acceptance scenario: an annserve-style
// gateway over a real engine coalesces concurrent requests into
// multi-query batches, answers repeated queries from the cache, and
// drains cleanly on shutdown.
func TestServerEndToEnd(t *testing.T) {
	e := testEngine(t)
	gate := &gatedBackend{Backend: &EngineBackend{Engine: e},
		entered: make(chan struct{}, 64), block: make(chan struct{})}
	s := NewServer(gate, ServerConfig{
		Batcher:   BatcherConfig{MaxBatch: 64, QueueDepth: 256},
		CacheSize: 1024,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Phase 1: load that arrives while every slot is busy coalesces.
	// Hold each slot with one request, fire the distinct queries, and
	// once all of them are queued free a single slot: they must share
	// its next round.
	wedged := wedgeHTTP(t, s, ts, 8, gate.entered)
	const n = 24
	rng := rand.New(rand.NewSource(7))
	queries := make([][]float32, n)
	for i := range queries {
		queries[i] = randQuery(rng, 8)
	}
	var wg sync.WaitGroup
	codes := make([]int, n)
	bodies := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, data := postSearch(t, ts.Client(), ts.URL, map[string]any{"query": queries[i], "k": 5})
			codes[i], bodies[i] = resp.StatusCode, data
		}(i)
	}
	for s.Stats().Snapshot().QueueDepth < n {
		time.Sleep(time.Millisecond)
	}
	gate.block <- struct{}{}
	<-gate.entered
	close(gate.block)
	wg.Wait()
	<-wedged
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, codes[i], bodies[i])
		}
		var sr searchResponse
		if err := json.Unmarshal(bodies[i], &sr); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if len(sr.Results) != 1 || len(sr.Results[0].IDs) != 5 {
			t.Fatalf("request %d: malformed results %s", i, bodies[i])
		}
		for j := 1; j < len(sr.Results[0].Dists); j++ {
			if sr.Results[0].Dists[j] < sr.Results[0].Dists[j-1] {
				t.Fatalf("request %d: distances not ascending: %v", i, sr.Results[0].Dists)
			}
		}
	}
	snap := s.Stats().Snapshot()
	if snap.Batches >= int64(n) {
		t.Fatalf("no coalescing: %d batches for %d requests", snap.Batches, n)
	}
	if snap.BatchSize.Max < 2 {
		t.Fatalf("max batch size %v, want >= 2", snap.BatchSize.Max)
	}
	t.Logf("served %d requests in %d batches (max batch %v)", n, snap.Batches, snap.BatchSize.Max)

	// Phase 2: a repeated query is answered from the cache.
	resp, data := postSearch(t, ts.Client(), ts.URL, map[string]any{"query": queries[0], "k": 5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat query: status %d: %s", resp.StatusCode, data)
	}
	var sr searchResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.Results[0].Cached {
		t.Fatalf("repeat query not served from cache: %s", data)
	}
	if hits := s.Stats().CacheHits.Load(); hits < 1 {
		t.Fatalf("CacheHits = %d, want >= 1", hits)
	}

	// Phase 3: multi-query POST body.
	resp, data = postSearch(t, ts.Client(), ts.URL, map[string]any{
		"queries": [][]float32{randQuery(rng, 8), randQuery(rng, 8), randQuery(rng, 8)}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch request: status %d: %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Results) != 3 {
		t.Fatalf("batch request: %d results, want 3", len(sr.Results))
	}

	// Phase 4: introspection endpoints.
	hresp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", hresp.StatusCode)
	}
	vresp, err := ts.Client().Get(ts.URL + "/varz")
	if err != nil {
		t.Fatal(err)
	}
	vdata, _ := io.ReadAll(vresp.Body)
	vresp.Body.Close()
	var varz map[string]any
	if err := json.Unmarshal(vdata, &varz); err != nil {
		t.Fatalf("varz not JSON: %v\n%s", err, vdata)
	}
	for _, key := range []string{"requests", "batches", "cache_hits", "latency_us", "runtime", "inflight_rounds"} {
		if _, ok := varz[key]; !ok {
			t.Fatalf("varz missing %q: %s", key, vdata)
		}
	}

	// Phase 5: graceful drain — in-flight work completes, new work is
	// refused, health flips.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	resp, data = postSearch(t, ts.Client(), ts.URL, map[string]any{"query": queries[1]})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain search: status %d: %s", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("post-drain 503 missing Retry-After")
	}
	hresp, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain healthz: %d, want 503", hresp.StatusCode)
	}
}

// TestServerSheds429: with a wedged backend and a tiny admission queue,
// excess load is refused with 429 + Retry-After, and admitted requests
// complete once the backend recovers.
func TestServerSheds429(t *testing.T) {
	fb := &fakeBackend{dim: 4, block: make(chan struct{}), entered: make(chan struct{}, 64)}
	s := NewServer(fb, ServerConfig{
		Batcher:   BatcherConfig{MaxBatch: 1, QueueDepth: 1},
		CacheSize: 0,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Wedge every in-flight slot.
	done1 := wedgeHTTP(t, s, ts, 4, fb.entered)

	// One more fits the queue; distinct queries beyond it must shed.
	// (Identical queries would coalesce via single-flight instead.)
	statuses := make(map[int]int)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _ := postSearch(t, ts.Client(), ts.URL,
				map[string]any{"query": []float32{float32(i + 1), 0, 0, 0}, "k": 1, "timeout_ms": 500})
			mu.Lock()
			statuses[resp.StatusCode]++
			mu.Unlock()
			if resp.StatusCode == http.StatusTooManyRequests && resp.Header.Get("Retry-After") == "" {
				t.Errorf("429 missing Retry-After")
			}
		}(i)
	}
	wg.Wait()
	if statuses[http.StatusTooManyRequests] == 0 {
		t.Fatalf("no load shed under overload: statuses %v", statuses)
	}
	if shed := s.Stats().Shed.Load(); shed == 0 {
		t.Fatal("Shed counter is zero")
	}
	t.Logf("overload statuses: %v", statuses)

	// Recovery: unblock the backend and the wedged requests complete.
	close(fb.block)
	<-done1
}

// TestServerSingleFlight: identical concurrent queries produce one
// backend search; the rest join it or hit the cache.
func TestServerSingleFlight(t *testing.T) {
	fb := &fakeBackend{dim: 4, delay: 20 * time.Millisecond}
	s := NewServer(fb, ServerConfig{
		Batcher:   BatcherConfig{MaxBatch: 16, QueueDepth: 64},
		CacheSize: 64,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 8
	q := []float32{3, 1, 4, 1}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, data := postSearch(t, ts.Client(), ts.URL, map[string]any{"query": q, "k": 2})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d: %s", resp.StatusCode, data)
			}
		}()
	}
	wg.Wait()
	if _, queries := fb.snapshot(); queries != 1 {
		t.Fatalf("backend saw %d searches for %d identical requests, want 1", queries, n)
	}
	snap := s.Stats().Snapshot()
	if snap.Coalesced+snap.CacheHits != n-1 {
		t.Fatalf("coalesced %d + cache hits %d, want %d combined", snap.Coalesced, snap.CacheHits, n-1)
	}
}

// TestServerDeadline: a request whose timeout_ms expires mid-search gets
// 504, not a hang.
func TestServerDeadline(t *testing.T) {
	fb := &fakeBackend{dim: 4, delay: 200 * time.Millisecond}
	s := NewServer(fb, ServerConfig{
		Batcher: BatcherConfig{MaxBatch: 4, QueueDepth: 8},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, data := postSearch(t, ts.Client(), ts.URL,
		map[string]any{"query": []float32{1, 2, 3, 4}, "timeout_ms": 10})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, data)
	}
}

// TestServerBadRequests: malformed inputs are rejected with 400-class
// statuses and counted.
func TestServerBadRequests(t *testing.T) {
	e := testEngine(t)
	s := NewServer(&EngineBackend{Engine: e}, ServerConfig{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		body any
		want int
	}{
		{"wrong dim", map[string]any{"query": []float32{1, 2}}, http.StatusBadRequest},
		{"no queries", map[string]any{"k": 5}, http.StatusBadRequest},
		{"both forms", map[string]any{"query": randQuery(rand.New(rand.NewSource(1)), 8),
			"queries": [][]float32{randQuery(rand.New(rand.NewSource(2)), 8)}}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, data := postSearch(t, ts.Client(), ts.URL, tc.body)
		if resp.StatusCode != tc.want {
			t.Fatalf("%s: status %d, want %d: %s", tc.name, resp.StatusCode, tc.want, data)
		}
		var er errorResponse
		if err := json.Unmarshal(data, &er); err != nil || er.Error == "" {
			t.Fatalf("%s: error body not descriptive: %s", tc.name, data)
		}
	}
	// Raw garbage body.
	resp, err := ts.Client().Post(ts.URL+"/v1/search", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage body: status %d", resp.StatusCode)
	}
	// Wrong method.
	resp, err = ts.Client().Get(ts.URL + "/v1/search")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/search: status %d", resp.StatusCode)
	}
	if bad := s.Stats().BadRequests.Load(); bad < int64(len(cases))+1 {
		t.Fatalf("BadRequests = %d, want >= %d", bad, len(cases)+1)
	}
}
