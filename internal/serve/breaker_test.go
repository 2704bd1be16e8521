package serve

import (
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/fsx"
	"repro/internal/store"
)

// TestWriteCircuitBreaker is the storage-failure serving scenario: the
// WAL's disk dies mid-ingest, the store poisons itself, and the gateway
// opens the write circuit breaker — mutations 503 with a reason,
// searches keep answering 200, liveness stays up, readiness goes
// not-ready, and /varz names the breaker state.
func TestWriteCircuitBreaker(t *testing.T) {
	e := testEngine(t)
	// The 6th fsync under wal/ fails AFTER completing — the fsyncgate
	// shape. Everything before it succeeds.
	fs := fsx.NewFaulty(fsx.OS{}, 1, fsx.Rule{Op: fsx.OpSync, Nth: 6, After: true, Path: "wal"})
	d, err := store.Create(t.TempDir(), e, store.Options{
		SyncEvery: 1, SyncInterval: -1, CompactRatio: -1, FS: fs,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	s := NewServer(&EngineBackend{Engine: d.Engine(), Store: d}, ServerConfig{
		Batcher: BatcherConfig{MaxBatch: 16, QueueDepth: 64},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()
	rng := rand.New(rand.NewSource(7))

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := client.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	// Healthy: writes land, both probes pass.
	resp, _ := postJSON(t, client, ts.URL, "/v1/upsert", map[string]any{"id": 9001, "vector": randQuery(rng, 8)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy upsert: %d", resp.StatusCode)
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthy liveness: %d", code)
	}
	if code, body := get("/healthz?ready=1"); code != http.StatusOK || !strings.Contains(body, "ready") {
		t.Fatalf("healthy readiness: %d %q", code, body)
	}

	// Ingest until the injected fsync failure trips the breaker. The
	// failing request itself must already surface as 503, not 500: the
	// replica is degraded, the request was fine.
	tripped := false
	for i := 0; i < 10; i++ {
		resp, body := postJSON(t, client, ts.URL, "/v1/upsert", map[string]any{"id": int64(9100 + i), "vector": randQuery(rng, 8)})
		if resp.StatusCode == http.StatusOK {
			continue
		}
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("tripping upsert: %d %s, want 503", resp.StatusCode, body)
		}
		if !strings.Contains(string(body), "WAL failed") {
			t.Fatalf("tripping upsert body gives no reason: %s", body)
		}
		tripped = true
		break
	}
	if !tripped {
		t.Fatal("injected fsync failure never tripped the breaker")
	}

	// Open breaker: every mutation is rejected up front with 503...
	resp, body := postJSON(t, client, ts.URL, "/v1/upsert", map[string]any{"id": 9900, "vector": randQuery(rng, 8)})
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "write path failed") {
		t.Fatalf("upsert with open breaker: %d %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, client, ts.URL, "/v1/delete", map[string]any{"id": 9001})
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "write path failed") {
		t.Fatalf("delete with open breaker: %d %s", resp.StatusCode, body)
	}

	// ...searches keep serving...
	sresp, sbody := postSearch(t, client, ts.URL, map[string]any{"query": randQuery(rng, 8), "k": 5})
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("search with open breaker: %d %s", sresp.StatusCode, sbody)
	}

	// ...liveness stays up (restart is an operator decision), readiness
	// drops out of the load-balancer pool.
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("liveness with open breaker: %d", code)
	}
	if code, body := get("/healthz?ready=1"); code != http.StatusServiceUnavailable || !strings.Contains(body, "not-ready") {
		t.Fatalf("readiness with open breaker: %d %q", code, body)
	}

	// /varz names the breaker and the store's failure state.
	_, vbody := get("/varz")
	var doc map[string]any
	if err := json.Unmarshal([]byte(vbody), &doc); err != nil {
		t.Fatalf("varz not JSON: %v", err)
	}
	breaker, ok := doc["breaker"].(map[string]any)
	if !ok {
		t.Fatalf("varz has no breaker section: %s", vbody)
	}
	if breaker["writes_tripped"] != true {
		t.Fatalf("breaker not tripped in varz: %v", breaker)
	}
	if reason, _ := breaker["reason"].(string); !strings.Contains(reason, "injected") {
		t.Fatalf("breaker reason does not name the cause: %v", breaker)
	}
	if n, _ := breaker["writes_rejected"].(float64); n < 2 {
		t.Fatalf("writes_rejected = %v, want >= 2", breaker["writes_rejected"])
	}
	ingest, ok := doc["ingest"].(map[string]any)
	if !ok || ingest["wal_failed"] != true {
		t.Fatalf("ingest section does not report wal_failed: %v", doc["ingest"])
	}
	if s.Stats().WritesRejected.Load() < 2 {
		t.Fatalf("WritesRejected = %d, want >= 2", s.Stats().WritesRejected.Load())
	}
}
