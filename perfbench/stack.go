package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fsx"
	"repro/internal/hnsw"
	"repro/internal/lexical"
	"repro/internal/serve"
	"repro/internal/store"
)

// The gateway under test is configured with annserve's defaults: max
// batch 64, max wait 2 ms, a 4096-entry result cache, and (for the
// durable store) an fsync every 64 WAL records or 50 ms.
func serverConfig() serve.ServerConfig {
	return serve.ServerConfig{
		Batcher:   serve.BatcherConfig{MaxBatch: 64, MaxWait: 2 * time.Millisecond},
		CacheSize: 4096,
	}
}

func storeOptions(fs fsx.FS) store.Options {
	return store.Options{
		SyncEvery:    64,
		SyncInterval: 50 * time.Millisecond,
		CompactRatio: 0.25,
		FS:           fs,
	}
}

// engineConfig fixes the partition count at two, with both searched
// per query, instead of deriving it from the CPU count as the repo's
// serving experiments do, so traversal counts do not depend on the
// machine.
func engineConfig(seed int64) core.Config {
	cfg := core.DefaultConfig(2)
	cfg.K = topK
	cfg.Seed = seed
	return cfg
}

// setupTimes splits one set-up into its steps, in seconds. total runs
// from the start of the build to the gateway answering its readiness
// probe.
type setupTimes struct {
	build, attrs, freeze, snapshot, total float64
}

// stack is one served engine: the engine, its durable store (ingest
// only), the backend adapter and the gateway in front of it.
type stack struct {
	eng *core.Engine
	dur *store.Durable
	be  *serve.EngineBackend
	gw  *gateway
}

// buildStack runs one complete set-up of workload w: build the engine,
// attach text (hybrid, ingest), then freeze (read-only workloads) or
// snapshot into a new store under dir (ingest), and start the gateway.
func buildStack(w string, in *inputs, dir string, fs fsx.FS) (*stack, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	e, err := core.NewEngine(in.ds, engineConfig(in.seed))
	if err != nil {
		return nil, st, err
	}
	t1 := time.Now()
	st.build = t1.Sub(t0).Seconds()
	if w != "knn" {
		for i := 0; i < in.ds.Len(); i++ {
			e.SetText(in.ds.ID(i), in.texts[i], in.ds.At(i))
		}
	}
	t2 := time.Now()
	st.attrs = t2.Sub(t1).Seconds()
	s := &stack{eng: e}
	if w == "ingest" {
		// The texts are already indexed with the default BM25
		// configuration, which is what Open restores them with.
		if s.dur, err = store.Create(dir, e, storeOptions(fs)); err != nil {
			return nil, st, err
		}
		st.snapshot = time.Since(t2).Seconds()
	} else {
		if err := e.Freeze(hnsw.FreezeOptions{SQ8: true}); err != nil {
			return nil, st, err
		}
		st.freeze = time.Since(t2).Seconds()
	}
	s.be = &serve.EngineBackend{Engine: e, Store: s.dur, Lexical: w != "knn"}
	if s.gw, err = startGateway(s.be); err != nil {
		s.close()
		return nil, st, err
	}
	st.total = time.Since(t0).Seconds()
	return s, st, nil
}

// reopen closes the store without a checkpoint and recovers it with
// store.Open, returning the recovered stack and the seconds from the
// start of Open to the new gateway answering its readiness probe.
func (s *stack) reopen(fs fsx.FS) (*stack, float64, error) {
	dir := s.dur.Dir()
	if err := s.gw.stop(); err != nil {
		return nil, 0, err
	}
	if err := s.dur.Close(); err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	opts := storeOptions(fs)
	opts.Lexical = &lexical.Config{}
	d, err := store.Open(dir, opts)
	if err != nil {
		return nil, 0, err
	}
	r := &stack{eng: d.Engine(), dur: d}
	r.be = &serve.EngineBackend{Engine: r.eng, Store: d, Lexical: true}
	if r.gw, err = startGateway(r.be); err != nil {
		r.close()
		return nil, 0, err
	}
	return r, time.Since(t0).Seconds(), nil
}

// close stops the gateway and closes the store; it leaves the store
// directory in place.
func (s *stack) close() error {
	var errs []error
	if s.gw != nil {
		errs = append(errs, s.gw.stop())
	}
	if s.dur != nil {
		errs = append(errs, s.dur.Close())
	}
	return errors.Join(errs...)
}

// gateway is a serve.Server listening on a loopback port.
type gateway struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan error

	stopOnce sync.Once
	stopErr  error
}

// startGateway serves backend on an ephemeral loopback port and
// returns once the readiness probe answers 200.
func startGateway(backend serve.Backend) (*gateway, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	g := &gateway{
		srv:  serve.NewServer(backend, serverConfig()),
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	g.hs = &http.Server{Handler: g.srv.Handler()}
	go func() { g.done <- g.hs.Serve(ln) }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(g.url + "/healthz?ready=1")
		if err == nil {
			resp.Body.Close()
			http.DefaultClient.CloseIdleConnections()
			if resp.StatusCode == http.StatusOK {
				return g, nil
			}
		}
		if time.Now().After(deadline) {
			g.stop()
			return nil, fmt.Errorf("gateway not ready after 10s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the HTTP server down, drains the batcher, and waits for
// the serve goroutine to return. Later calls return the first result.
func (g *gateway) stop() error {
	g.stopOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		err := g.hs.Shutdown(ctx)
		if derr := g.srv.Drain(ctx); err == nil {
			err = derr
		}
		if serr := <-g.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
		g.stopErr = err
	})
	return g.stopErr
}

// dirMB is the total size of the regular files under dir, in MiB.
func dirMB(dir string) (float64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		fi, err := d.Info()
		if err != nil {
			return err
		}
		n += fi.Size()
		return nil
	})
	return float64(n) / (1 << 20), err
}
