package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/collection"
)

// testCollectionServer spins a registry-backed gateway with one
// pre-created collection "default" (dim 8) so legacy routes work.
func testCollectionServer(t *testing.T, cfg ServerConfig) (*Server, *httptest.Server, *collection.Registry) {
	t.Helper()
	reg, err := collection.Open(t.TempDir(), collection.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Create(DefaultCollection, collection.Config{Dim: 8}); err != nil {
		t.Fatal(err)
	}
	if cfg.Batcher == (BatcherConfig{}) {
		cfg.Batcher = BatcherConfig{MaxBatch: 16, QueueDepth: 64}
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 256
	}
	s, err := NewCollectionServer(reg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
	})
	return s, ts, reg
}

func decodeErr(t *testing.T, data []byte) errorResponse {
	t.Helper()
	var er errorResponse
	if err := json.Unmarshal(data, &er); err != nil {
		t.Fatalf("error body not JSON: %v: %s", err, data)
	}
	return er
}

// TestCollectionServerEndToEnd drives the multi-tenant surface: create
// a second collection over HTTP, write tagged points into both, run
// filtered searches through the per-collection routes, check the
// legacy aliases and /varz sections, and drop the collection again.
func TestCollectionServerEndToEnd(t *testing.T) {
	s, ts, _ := testCollectionServer(t, ServerConfig{})
	client := ts.Client()

	// Create "beta" with a different dim and metric at runtime.
	resp, data := postJSON(t, client, ts.URL, "/v1/collections",
		map[string]any{"name": "beta", "dim": 4, "metric": "cosine"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create beta: %d %s", resp.StatusCode, data)
	}
	// Duplicate create conflicts.
	resp, data = postJSON(t, client, ts.URL, "/v1/collections",
		map[string]any{"name": "beta", "dim": 4})
	if resp.StatusCode != http.StatusConflict || decodeErr(t, data).Code != codeCollectionExists {
		t.Fatalf("duplicate create: %d %s", resp.StatusCode, data)
	}

	// List shows both, sorted.
	lresp, err := client.Get(ts.URL + "/v1/collections")
	if err != nil {
		t.Fatal(err)
	}
	ldata, _ := io.ReadAll(lresp.Body)
	lresp.Body.Close()
	var list struct {
		Collections []collectionInfo `json:"collections"`
	}
	if err := json.Unmarshal(ldata, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Collections) != 2 || list.Collections[0].Name != "beta" ||
		list.Collections[1].Name != DefaultCollection {
		t.Fatalf("list = %s", ldata)
	}
	if list.Collections[0].Dim != 4 || list.Collections[0].Metric != "cosine" {
		t.Fatalf("beta info wrong: %s", ldata)
	}

	// Tagged upserts: legacy route hits "default", the prefixed route
	// hits "beta".
	rng := rand.New(rand.NewSource(11))
	var defPoints, betaPoints []map[string]any
	for i := 0; i < 60; i++ {
		defPoints = append(defPoints, map[string]any{
			"id": 1000 + i, "vector": randQuery(rng, 8),
			"tags": map[string]string{"lang": []string{"en", "de", "fr"}[i%3]},
		})
		betaPoints = append(betaPoints, map[string]any{
			"id": 9_000_000 + i, "vector": randQuery(rng, 4),
			"tags": map[string]string{"hot": fmt.Sprintf("%d", i%2)},
		})
	}
	resp, data = postJSON(t, client, ts.URL, "/v1/upsert", map[string]any{"points": defPoints})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("default upsert: %d %s", resp.StatusCode, data)
	}
	resp, data = postJSON(t, client, ts.URL, "/v1/collections/beta/upsert", map[string]any{"points": betaPoints})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("beta upsert: %d %s", resp.StatusCode, data)
	}

	// Filtered search in default: only lang=de ids (1000+i, i%3==1) may
	// come back, and exploring past non-matching points must fill k.
	resp, data = postJSON(t, client, ts.URL, "/v1/collections/default/search",
		map[string]any{"query": randQuery(rng, 8), "k": 5, "filter": "lang=de"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("filtered search: %d %s", resp.StatusCode, data)
	}
	var sr searchResponse
	json.Unmarshal(data, &sr)
	if len(sr.Results) != 1 || len(sr.Results[0].IDs) != 5 {
		t.Fatalf("filtered search returned %s", data)
	}
	for _, id := range sr.Results[0].IDs {
		if (id-1000)%3 != 1 {
			t.Fatalf("lang=de returned id %d", id)
		}
	}

	// Cross-collection isolation over HTTP: beta's filtered search only
	// returns beta ids.
	resp, data = postJSON(t, client, ts.URL, "/v1/collections/beta/search",
		map[string]any{"query": randQuery(rng, 4), "k": 5, "filter": "hot=1"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("beta search: %d %s", resp.StatusCode, data)
	}
	json.Unmarshal(data, &sr)
	for _, id := range sr.Results[0].IDs {
		if id < 9_000_000 {
			t.Fatalf("beta search leaked foreign id %d", id)
		}
	}

	// Legacy /v1/search aliases the default collection.
	resp, data = postSearch(t, client, ts.URL, map[string]any{"query": randQuery(rng, 8), "k": 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("legacy search: %d %s", resp.StatusCode, data)
	}
	json.Unmarshal(data, &sr)
	for _, id := range sr.Results[0].IDs {
		if id < 1000 || id >= 9_000_000 {
			t.Fatalf("legacy search returned non-default id %d", id)
		}
	}

	// /varz exposes a per-collection section for both tenants.
	vresp, err := client.Get(ts.URL + "/varz")
	if err != nil {
		t.Fatal(err)
	}
	vdata, _ := io.ReadAll(vresp.Body)
	vresp.Body.Close()
	var varz struct {
		Collections map[string]struct {
			Dim      int   `json:"dim"`
			Points   int   `json:"points"`
			Tagged   int   `json:"tagged"`
			Cache    int   `json:"cache_entries"`
			Inserted int64 `json:"inserted"`
		} `json:"collections"`
	}
	if err := json.Unmarshal(vdata, &varz); err != nil {
		t.Fatalf("varz not JSON: %v\n%s", err, vdata)
	}
	if varz.Collections["default"].Dim != 8 || varz.Collections["beta"].Dim != 4 {
		t.Fatalf("varz collections sections wrong: %s", vdata)
	}
	if varz.Collections["beta"].Tagged != 60 {
		t.Fatalf("beta tagged = %d, want 60", varz.Collections["beta"].Tagged)
	}

	// Drop beta: 200, then requests 404 and the listing shrinks.
	dreq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/collections/beta", nil)
	dresp, err := client.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("drop beta: %d", dresp.StatusCode)
	}
	resp, data = postJSON(t, client, ts.URL, "/v1/collections/beta/search",
		map[string]any{"query": randQuery(rng, 4)})
	if resp.StatusCode != http.StatusNotFound || decodeErr(t, data).Code != codeUnknownCollection {
		t.Fatalf("search dropped collection: %d %s", resp.StatusCode, data)
	}
	_ = s
}

// TestTypedErrors pins the machine-readable error contract: status and
// code for every failure class the gateway distinguishes.
func TestTypedErrors(t *testing.T) {
	_, ts, reg := testCollectionServer(t, ServerConfig{})
	client := ts.Client()
	if _, err := reg.Create("tiny", collection.Config{Dim: 4, MaxInflight: 1}); err != nil {
		t.Fatal(err)
	}
	// The registry-created collection is not yet a tenant (created
	// outside HTTP); recreate the server path by hitting the admin API
	// instead.
	resp, data := postJSON(t, client, ts.URL, "/v1/collections",
		map[string]any{"name": "quota", "dim": 4, "max_inflight": 1})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create quota collection: %d %s", resp.StatusCode, data)
	}
	qcol, err := reg.Get("quota")
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name       string
		path       string
		body       map[string]any
		wantStatus int
		wantCode   string
		retryAfter bool
		setup      func() func()
	}{
		{
			name: "unknown collection search", path: "/v1/collections/nope/search",
			body:       map[string]any{"query": []float32{1, 2, 3, 4}},
			wantStatus: http.StatusNotFound, wantCode: codeUnknownCollection,
		},
		{
			name: "unknown collection upsert", path: "/v1/collections/nope/upsert",
			body:       map[string]any{"id": 1, "vector": []float32{1, 2, 3, 4}},
			wantStatus: http.StatusNotFound, wantCode: codeUnknownCollection,
		},
		{
			name: "dim mismatch search", path: "/v1/collections/default/search",
			body:       map[string]any{"query": []float32{1, 2}},
			wantStatus: http.StatusBadRequest, wantCode: codeDimMismatch,
		},
		{
			name: "dim mismatch upsert", path: "/v1/collections/default/upsert",
			body:       map[string]any{"id": 7, "vector": []float32{1, 2}},
			wantStatus: http.StatusBadRequest, wantCode: codeDimMismatch,
		},
		{
			name: "bad filter", path: "/v1/collections/default/search",
			body:       map[string]any{"query": make([]float32, 8), "filter": "lang=={"},
			wantStatus: http.StatusBadRequest, wantCode: codeBadFilter,
		},
		{
			name: "bad collection name", path: "/v1/collections",
			body:       map[string]any{"name": "no/slash", "dim": 4},
			wantStatus: http.StatusBadRequest, wantCode: codeBadName,
		},
		{
			name: "bad collection config", path: "/v1/collections",
			body:       map[string]any{"name": "nodim"},
			wantStatus: http.StatusBadRequest, wantCode: codeBadRequest,
		},
		{
			name: "quota exceeded search", path: "/v1/collections/quota/search",
			body:       map[string]any{"query": []float32{0, 0, 0, 0}},
			wantStatus: http.StatusTooManyRequests, wantCode: codeQuota, retryAfter: true,
			setup: func() func() {
				if err := qcol.Acquire(); err != nil {
					t.Fatal(err)
				}
				return qcol.Release
			},
		},
		{
			name: "quota exceeded upsert", path: "/v1/collections/quota/upsert",
			body:       map[string]any{"id": 3, "vector": []float32{0, 0, 0, 0}},
			wantStatus: http.StatusTooManyRequests, wantCode: codeQuota, retryAfter: true,
			setup: func() func() {
				if err := qcol.Acquire(); err != nil {
					t.Fatal(err)
				}
				return qcol.Release
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.setup != nil {
				defer tc.setup()()
			}
			resp, data := postJSON(t, client, ts.URL, tc.path, tc.body)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.wantStatus, data)
			}
			er := decodeErr(t, data)
			if er.Code != tc.wantCode {
				t.Fatalf("code %q, want %q: %s", er.Code, tc.wantCode, data)
			}
			if er.Error == "" {
				t.Fatalf("error message empty: %s", data)
			}
			if tc.retryAfter && resp.Header.Get("Retry-After") == "" {
				t.Fatalf("%d response missing Retry-After", tc.wantStatus)
			}
		})
	}
}

// TestQuotaCollectionConcurrentSearches: every search round takes one
// slot of the collection's MaxInflight quota, so a max_inflight:1
// collection gets a one-slot batcher. Concurrent searches then queue
// and share rounds instead of running a second round into a 429.
func TestQuotaCollectionConcurrentSearches(t *testing.T) {
	s, ts, reg := testCollectionServer(t, ServerConfig{})
	client := ts.Client()
	resp, data := postJSON(t, client, ts.URL, "/v1/collections",
		map[string]any{"name": "quota", "dim": 8, "max_inflight": 1})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create quota collection: %d %s", resp.StatusCode, data)
	}
	col, err := reg.Get("quota")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 300; i++ {
		if err := col.Upsert(randQuery(rng, 8), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.RLock()
	slots := s.tenants["quota"].batcher.slots
	s.mu.RUnlock()
	if slots != 1 {
		t.Fatalf("max_inflight:1 collection has %d batcher slots, want 1", slots)
	}

	const n = 64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		q := randQuery(rng, 8)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, data := postJSON(t, client, ts.URL, "/v1/collections/quota/search",
				map[string]any{"query": q, "k": 5})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("search %d: status %d: %s", i, resp.StatusCode, data)
			}
		}(i)
	}
	wg.Wait()
}

// TestCacheKeyedByCollectionAndFilter is the cache-correctness
// regression: the same query vector is a different cache entry per
// collection and per canonical filter, equivalent filter spellings
// share an entry, and a mutation in one collection purges only that
// collection's cache.
func TestCacheKeyedByCollectionAndFilter(t *testing.T) {
	_, ts, _ := testCollectionServer(t, ServerConfig{})
	client := ts.Client()
	resp, data := postJSON(t, client, ts.URL, "/v1/collections",
		map[string]any{"name": "twin", "dim": 8})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create twin: %d %s", resp.StatusCode, data)
	}

	rng := rand.New(rand.NewSource(5))
	for _, col := range []string{"default", "twin"} {
		var pts []map[string]any
		for i := 0; i < 40; i++ {
			pts = append(pts, map[string]any{
				"id": 100 + i, "vector": randQuery(rng, 8),
				"tags": map[string]string{"p": fmt.Sprintf("%d", i%2), "q": "x"},
			})
		}
		resp, data := postJSON(t, client, ts.URL, "/v1/collections/"+col+"/upsert",
			map[string]any{"points": pts})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s upsert: %d %s", col, resp.StatusCode, data)
		}
	}

	q := randQuery(rng, 8)
	search := func(col, filter string) searchResponse {
		t.Helper()
		body := map[string]any{"query": q, "k": 3}
		if filter != "" {
			body["filter"] = filter
		}
		resp, data := postJSON(t, client, ts.URL, "/v1/collections/"+col+"/search", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s search (filter %q): %d %s", col, filter, resp.StatusCode, data)
		}
		var sr searchResponse
		json.Unmarshal(data, &sr)
		return sr
	}
	cached := func(sr searchResponse) bool { return sr.Results[0].Cached }

	// Warm default unfiltered, then assert every distinct (collection,
	// filter) axis misses while repeats hit.
	if cached(search("default", "")) {
		t.Fatal("first search came back cached")
	}
	if !cached(search("default", "")) {
		t.Fatal("repeat unfiltered search not cached")
	}
	if cached(search("twin", "")) {
		t.Fatal("same query in another collection reused the cache entry")
	}
	if cached(search("default", "p=1")) {
		t.Fatal("filtered search reused the unfiltered cache entry")
	}
	if !cached(search("default", "p=1")) {
		t.Fatal("repeat filtered search not cached")
	}
	if cached(search("default", "p=0")) {
		t.Fatal("different filter value reused the cache entry")
	}
	// Equivalent spellings canonicalize to one entry.
	if cached(search("default", "p=1 and q=x")) {
		t.Fatal("conjunction unexpectedly cached already")
	}
	if !cached(search("default", "q=x && p=1")) {
		t.Fatal("equivalent filter spelling missed the cache")
	}

	// A mutation in twin purges only twin's cache.
	if !cached(search("twin", "")) {
		t.Fatal("twin repeat not cached before mutation")
	}
	resp, data = postJSON(t, client, ts.URL, "/v1/collections/twin/upsert",
		map[string]any{"id": 999, "vector": randQuery(rng, 8)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("twin mutation: %d %s", resp.StatusCode, data)
	}
	if cached(search("twin", "")) {
		t.Fatal("twin cache survived twin's own mutation")
	}
	if !cached(search("default", "")) {
		t.Fatal("default cache was purged by twin's mutation")
	}
	if !cached(search("default", "p=1")) {
		t.Fatal("default filtered cache was purged by twin's mutation")
	}
}

// TestCollectionServerConcurrentIsolation hammers two collections with
// mixed mutating and filtered-search HTTP traffic; run under -race. Any
// cross-collection id in a response is leakage.
func TestCollectionServerConcurrentIsolation(t *testing.T) {
	_, ts, _ := testCollectionServer(t, ServerConfig{CacheSize: -1})
	client := ts.Client()
	resp, data := postJSON(t, client, ts.URL, "/v1/collections",
		map[string]any{"name": "wide", "dim": 12, "metric": "cosine"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create wide: %d %s", resp.StatusCode, data)
	}

	type colSpec struct {
		name string
		dim  int
		base int64
	}
	specs := []colSpec{{"default", 8, 1000}, {"wide", 12, 5_000_000}}
	var stop atomic.Bool
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	fail := func(err error) {
		select {
		case errc <- err:
		default:
		}
	}

	for si, spec := range specs {
		wg.Add(2)
		go func(spec colSpec, seed int64) { // writer
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; !stop.Load(); i++ {
				body := map[string]any{
					"id": spec.base + int64(i), "vector": randQuery(rng, spec.dim),
					"tags": map[string]string{"par": fmt.Sprintf("%d", i%2)},
				}
				resp, data := postJSON(t, client, ts.URL, "/v1/collections/"+spec.name+"/upsert", body)
				if resp.StatusCode != http.StatusOK {
					fail(fmt.Errorf("%s upsert: %d %s", spec.name, resp.StatusCode, data))
					return
				}
			}
		}(spec, int64(si+1))
		go func(spec colSpec, seed int64) { // filtered reader
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				resp, data := postJSON(t, client, ts.URL, "/v1/collections/"+spec.name+"/search",
					map[string]any{"query": randQuery(rng, spec.dim), "k": 4, "filter": "par=0"})
				if resp.StatusCode != http.StatusOK {
					fail(fmt.Errorf("%s search: %d %s", spec.name, resp.StatusCode, data))
					return
				}
				var sr searchResponse
				json.Unmarshal(data, &sr)
				for _, id := range sr.Results[0].IDs {
					if id < spec.base || id >= spec.base+1_000_000 {
						fail(fmt.Errorf("%s returned foreign id %d", spec.name, id))
						return
					}
				}
			}
		}(spec, int64(si+10))
	}
	time.Sleep(300 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
}
