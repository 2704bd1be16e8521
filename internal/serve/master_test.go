package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/vec"
)

// gatedMaster holds every master round until the test releases it.
// Embedding *MasterBackend keeps its RoundLimiter, so the gateway gives
// the wrapper the same single slot as the bare backend.
type gatedMaster struct {
	*MasterBackend
	entered chan struct{}
	block   chan struct{}
}

func (g *gatedMaster) SearchBatch(ctx context.Context, qs *vec.Dataset, k int) (BatchOutput, error) {
	g.entered <- struct{}{}
	<-g.block
	return g.MasterBackend.SearchBatch(ctx, qs, k)
}

// waitUntil polls cond every millisecond until it holds or d elapses.
func waitUntil(d time.Duration, cond func() bool) bool {
	for end := time.Now().Add(d); time.Now().Before(end); time.Sleep(time.Millisecond) {
		if cond() {
			return true
		}
	}
	return cond()
}

// TestMasterBackendConcurrent serves an in-process cluster (master and
// two workers) through the gateway. The master is single-threaded, so
// its batcher runs one round at a time; every request that queues
// behind a running round must share the next one, and each must still
// get exactly the row a direct Master.Search returns for its query.
// Under -race, a second concurrent round through the master would be
// reported as a data race.
func TestMasterBackendConcurrent(t *testing.T) {
	const n, dim = 32, 8
	rng := rand.New(rand.NewSource(5))
	ds := vec.NewDataset(dim, 600)
	for i := 0; i < 600; i++ {
		ds.Append(randQuery(rng, dim), int64(i))
	}
	queries := make([][]float32, n)
	for i := range queries {
		queries[i] = randQuery(rng, dim)
	}

	w := cluster.NewWorld(3)
	err := w.Run(func(c *cluster.Comm) error {
		return core.RunCluster(c, ds, core.DefaultConfig(2), func(m *core.Master) error {
			g := &gatedMaster{MasterBackend: &MasterBackend{Master: m},
				entered: make(chan struct{}, n), block: make(chan struct{})}
			s := NewServer(g, ServerConfig{Batcher: BatcherConfig{MaxBatch: 64, QueueDepth: 256}})
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			if got := defaultSlots(s); got != 1 {
				t.Errorf("master batcher has %d slots, want 1", got)
			}

			rows := make([]searchResult, n)
			var wg sync.WaitGroup
			send := func(i int) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					resp, data := postSearch(t, ts.Client(), ts.URL, map[string]any{"query": queries[i], "k": m.K()})
					if resp.StatusCode != http.StatusOK {
						t.Errorf("request %d: status %d: %s", i, resp.StatusCode, data)
						return
					}
					var sr searchResponse
					if err := json.Unmarshal(data, &sr); err != nil || len(sr.Results) != 1 {
						t.Errorf("request %d: bad body %s", i, data)
						return
					}
					rows[i] = sr.Results[0]
				}()
			}
			// Hold the one slot with request 0, queue the other n-1
			// behind it, then let the rounds run.
			send(0)
			select {
			case <-g.entered:
			case <-time.After(10 * time.Second):
				return errors.New("first round never reached the master")
			}
			for i := 1; i < n; i++ {
				send(i)
			}
			queued := waitUntil(10*time.Second, func() bool { return s.Stats().Snapshot().QueueDepth == n-1 })
			close(g.block)
			wg.Wait()
			if !queued {
				return fmt.Errorf("queue depth %d, want %d", s.Stats().Snapshot().QueueDepth, n-1)
			}

			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := s.Drain(ctx); err != nil {
				return err
			}
			// The first round went alone; the queued n-1 shared one.
			snap := s.Stats().Snapshot()
			if snap.Requests != n || snap.Batches != 2 {
				t.Errorf("varz: %d requests in %d batches, want %d in 2", snap.Requests, snap.Batches, n)
			}

			// The gateway is drained, so the master is free for the
			// reference answers.
			qs := vec.NewDataset(dim, n)
			for i, q := range queries {
				qs.Append(q, int64(i))
			}
			want, err := m.Search(qs)
			if err != nil {
				return err
			}
			for i, row := range want.Results {
				got := rows[i]
				if len(got.IDs) != len(row) {
					t.Errorf("query %d: %d results, want %d", i, len(got.IDs), len(row))
					continue
				}
				for j, r := range row {
					if got.IDs[j] != r.ID || got.Dists[j] != r.Dist {
						t.Errorf("query %d rank %d: got (%d, %v), want (%d, %v)", i, j, got.IDs[j], got.Dists[j], r.ID, r.Dist)
					}
				}
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}
