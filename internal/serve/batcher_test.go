package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/topk"
	"repro/internal/vec"
)

// fakeBackend answers query q with k rows whose IDs encode q[0], records
// every dispatched batch size and the peak number of concurrent rounds,
// and can block or delay to stage overload and coalescing scenarios.
type fakeBackend struct {
	dim     int
	delay   time.Duration
	block   chan struct{} // when non-nil, SearchBatch takes one token from it (close releases all)
	entered chan struct{} // when non-nil, receives one token per SearchBatch call

	degraded    bool  // when set, every batch reports a partial answer
	failedParts []int // partitions reported as failed alongside degraded

	mu       sync.Mutex
	batches  []int
	queries  int
	inflight int
	peak     int
}

func (f *fakeBackend) Dim() int  { return f.dim }
func (f *fakeBackend) MaxK() int { return 0 }

func (f *fakeBackend) SearchBatch(ctx context.Context, qs *vec.Dataset, k int) (BatchOutput, error) {
	f.mu.Lock()
	f.inflight++
	f.peak = max(f.peak, f.inflight)
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		f.inflight--
		f.mu.Unlock()
	}()
	if f.entered != nil {
		f.entered <- struct{}{}
	}
	if f.block != nil {
		<-f.block
	}
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	f.mu.Lock()
	f.batches = append(f.batches, qs.Len())
	f.queries += qs.Len()
	f.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return BatchOutput{}, err
	}
	out := make([][]topk.Result, qs.Len())
	for i := range out {
		base := int64(qs.At(i)[0])
		row := make([]topk.Result, k)
		for j := range row {
			row[j] = topk.Result{ID: base*1000 + int64(j), Dist: float32(j)}
		}
		out[i] = row
	}
	return BatchOutput{Results: out, Degraded: f.degraded, FailedPartitions: f.failedParts}, nil
}

func (f *fakeBackend) snapshot() (batches []int, queries int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]int(nil), f.batches...), f.queries
}

func (f *fakeBackend) peakInflight() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.peak
}

func query(dim int, tag float32) []float32 {
	q := make([]float32, dim)
	q[0] = tag
	return q
}

// wedge fills every in-flight slot of b with a one-query round held
// inside fb (which must have block and entered set). Each submission
// waits for its round to enter the backend before the next goes in, so
// no two wedge requests share a round. It returns their answer
// channels; the rounds finish once fb.block releases them.
func wedge(t *testing.T, b *Batcher, fb *fakeBackend) []<-chan answer {
	t.Helper()
	chans := make([]<-chan answer, b.slots)
	for i := range chans {
		ch, err := b.Submit(context.Background(), query(fb.dim, float32(-1-i)), 1)
		if err != nil {
			t.Fatalf("wedge %d: %v", i, err)
		}
		chans[i] = ch
		<-fb.entered
	}
	return chans
}

// TestBatcherCoalesces: requests that arrive while every slot is busy
// share the next round — the observed max batch size exceeds 1 and
// every caller still gets its own correct, k-trimmed row.
func TestBatcherCoalesces(t *testing.T) {
	fb := &fakeBackend{dim: 4, block: make(chan struct{}), entered: make(chan struct{}, 64)}
	b := NewBatcher(fb, BatcherConfig{MaxBatch: 32, QueueDepth: 64}, nil)
	defer b.Drain(context.Background())
	wedged := wedge(t, b, fb)

	const n = 16
	chans := make([]<-chan answer, n)
	for i := 0; i < n; i++ {
		ch, err := b.Submit(context.Background(), query(4, float32(i)), 3)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		chans[i] = ch
	}
	// Free exactly one slot: its dispatcher takes the whole queue in one
	// round while every other slot is still held.
	fb.block <- struct{}{}
	<-fb.entered
	close(fb.block)

	errs := make([]error, n)
	rows := make([][]topk.Result, n)
	for i, ch := range chans {
		a := <-ch
		rows[i], errs[i] = a.results, a.err
	}
	for i, ch := range wedged {
		if a := <-ch; a.err != nil {
			t.Fatalf("wedge request %d: %v", i, a.err)
		}
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if len(rows[i]) != 3 {
			t.Fatalf("request %d: got %d results, want 3", i, len(rows[i]))
		}
		if rows[i][0].ID != int64(i)*1000 {
			t.Fatalf("request %d: got row for tag %d", i, rows[i][0].ID/1000)
		}
	}
	batches, queries := fb.snapshot()
	if queries != n+len(wedged) {
		t.Fatalf("backend saw %d queries, want %d", queries, n+len(wedged))
	}
	max := 0
	for _, sz := range batches {
		if sz > max {
			max = sz
		}
	}
	if max < 2 {
		t.Fatalf("no coalescing observed: batch sizes %v", batches)
	}
	if max != n {
		t.Fatalf("the %d queued requests did not share one round: batch sizes %v", n, batches)
	}
	t.Logf("coalesced %d requests into %d batches (max size %d)", n, len(batches), max)
}

// TestBatcherDropsExpired: a request whose deadline passed while queued
// is answered with its context error and never reaches the backend.
func TestBatcherDropsExpired(t *testing.T) {
	fb := &fakeBackend{dim: 4}
	stats := NewStats()
	b := NewBatcher(fb, BatcherConfig{MaxBatch: 8, QueueDepth: 8}, stats)
	defer b.Drain(context.Background())

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ch, err := b.Submit(ctx, query(4, 1), 3)
	if err != nil {
		t.Fatal(err)
	}
	a := <-ch
	if !errors.Is(a.err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", a.err)
	}
	if _, queries := fb.snapshot(); queries != 0 {
		t.Fatalf("expired query reached the backend (%d queries)", queries)
	}
	if got := stats.DeadlineDrops.Load(); got != 1 {
		t.Fatalf("DeadlineDrops = %d, want 1", got)
	}
}

// TestBatcherOverload: once every in-flight slot is busy and the
// bounded queue is full, Submit sheds immediately with ErrOverloaded.
func TestBatcherOverload(t *testing.T) {
	fb := &fakeBackend{dim: 4, block: make(chan struct{}), entered: make(chan struct{}, 64)}
	stats := NewStats()
	b := NewBatcher(fb, BatcherConfig{MaxBatch: 1, QueueDepth: 2}, stats)
	defer b.Drain(context.Background())

	// Every slot collects one submission and blocks inside the backend;
	// wedge waits for each handshake so queue occupancy is exact.
	wedged := wedge(t, b, fb)

	// Fill the admission queue.
	waiting := make([]<-chan answer, 0, 2)
	for i := 1; i <= 2; i++ {
		ch, err := b.Submit(context.Background(), query(4, float32(i)), 1)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		waiting = append(waiting, ch)
	}
	// The queue is full: the next submission must shed.
	if _, err := b.Submit(context.Background(), query(4, 9), 1); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("want ErrOverloaded, got %v", err)
	}
	if got := stats.Shed.Load(); got != 1 {
		t.Fatalf("Shed = %d, want 1", got)
	}

	// Release the backend (a closed channel unblocks every later round):
	// everything admitted still completes.
	close(fb.block)
	for i, ch := range wedged {
		if a := <-ch; a.err != nil {
			t.Fatalf("wedge request %d: %v", i, a.err)
		}
	}
	for i, ch := range waiting {
		if a := <-ch; a.err != nil {
			t.Fatalf("queued request %d: %v", i, a.err)
		}
	}
}

// TestBatcherDrain: Drain finishes queued work, then refuses new
// submissions with ErrDraining.
func TestBatcherDrain(t *testing.T) {
	fb := &fakeBackend{dim: 4, delay: 2 * time.Millisecond}
	b := NewBatcher(fb, BatcherConfig{MaxBatch: 4, QueueDepth: 16}, nil)

	chans := make([]<-chan answer, 0, 8)
	for i := 0; i < 8; i++ {
		ch, err := b.Submit(context.Background(), query(4, float32(i)), 2)
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := b.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	for i, ch := range chans {
		a := <-ch
		if a.err != nil {
			t.Fatalf("request %d lost in drain: %v", i, a.err)
		}
	}
	if _, err := b.Submit(context.Background(), query(4, 0), 2); !errors.Is(err, ErrDraining) {
		t.Fatalf("want ErrDraining after drain, got %v", err)
	}
	if _, queries := fb.snapshot(); queries != 8 {
		t.Fatalf("backend saw %d queries, want all 8", queries)
	}
}

// TestBatcherNoWaitWindow: a lone request on an idle batcher is
// dispatched at once. MaxWait is ignored, so even a 10 s setting adds
// nothing.
func TestBatcherNoWaitWindow(t *testing.T) {
	fb := &fakeBackend{dim: 4}
	b := NewBatcher(fb, BatcherConfig{MaxBatch: 64, MaxWait: 10 * time.Second, QueueDepth: 64}, nil)
	defer b.Drain(context.Background())

	start := time.Now()
	rows, _, err := b.Do(context.Background(), query(4, 7), 2)
	if err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 500*time.Millisecond {
		t.Fatalf("lone request took %v: the batcher waited for company", el)
	}
	if len(rows) != 2 || rows[0].ID != 7000 {
		t.Fatalf("wrong row %v", rows)
	}
}

// TestBatcherBoundsInflight: the backend never sees more concurrent
// rounds than there are slots (GOMAXPROCS), and every slot is usable.
func TestBatcherBoundsInflight(t *testing.T) {
	fb := &fakeBackend{dim: 4, block: make(chan struct{}), entered: make(chan struct{}, 256)}
	stats := NewStats()
	b := NewBatcher(fb, BatcherConfig{MaxBatch: 4, QueueDepth: 256}, stats)
	defer b.Drain(context.Background())
	if b.slots != runtime.GOMAXPROCS(0) {
		t.Fatalf("slots = %d, want GOMAXPROCS %d", b.slots, runtime.GOMAXPROCS(0))
	}

	// Hold every slot; a further submission must wait in the queue
	// instead of opening another round.
	wedged := wedge(t, b, fb)
	if got := stats.Snapshot().InflightRounds; got != int64(b.slots) {
		t.Fatalf("inflight_rounds = %d with every slot held, want %d", got, b.slots)
	}
	extra, err := b.Submit(context.Background(), query(4, 99), 1)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if n := len(fb.entered); n != 0 {
		t.Fatalf("%d rounds started while every slot was busy", n)
	}
	if got := stats.Snapshot().QueueDepth; got != 1 {
		t.Fatalf("queue_depth = %d, want 1", got)
	}
	close(fb.block)
	for _, ch := range append(wedged, extra) {
		if a := <-ch; a.err != nil {
			t.Fatal(a.err)
		}
	}

	// Then a burst far wider than the slot count.
	var wg sync.WaitGroup
	for i := 0; i < 16*b.slots; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, _, err := b.Do(context.Background(), query(4, float32(i)), 1); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if p := fb.peakInflight(); p > b.slots {
		t.Fatalf("backend saw %d concurrent rounds, slots = %d", p, b.slots)
	}
	// A round's answers are delivered before its slot is released, so
	// wait for the dispatchers to finish before reading the gauge.
	if err := b.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := stats.Snapshot().InflightRounds; got != 0 {
		t.Fatalf("inflight_rounds = %d after the load, want 0", got)
	}
}

// TestBatcherDrainWaitsInflight: Drain returns only after every round
// in flight, and everything queued behind them, has delivered.
func TestBatcherDrainWaitsInflight(t *testing.T) {
	fb := &fakeBackend{dim: 4, block: make(chan struct{}), entered: make(chan struct{}, 64)}
	b := NewBatcher(fb, BatcherConfig{MaxBatch: 4, QueueDepth: 16}, nil)
	chans := wedge(t, b, fb)
	for i := 0; i < 6; i++ {
		ch, err := b.Submit(context.Background(), query(4, float32(i)), 1)
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drained <- b.Drain(ctx)
	}()
	select {
	case err := <-drained:
		t.Fatalf("Drain returned %v while rounds were still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(fb.block)
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	for i, ch := range chans {
		select {
		case a := <-ch:
			if a.err != nil {
				t.Fatalf("request %d: %v", i, a.err)
			}
		default:
			t.Fatalf("request %d had no answer when Drain returned", i)
		}
	}
}
