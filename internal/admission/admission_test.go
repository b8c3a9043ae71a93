package admission

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fastintersect/internal/obs"
	"fastintersect/internal/race"
)

func TestGateFastPath(t *testing.T) {
	g := NewGate(Config{MaxInflight: 2}, nil)
	tk, err := g.Acquire(context.Background(), "")
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	if st := g.Stats(); st.Accepted != 1 || st.Inflight != 1 {
		t.Fatalf("stats = %+v, want accepted=1 inflight=1", st)
	}
	g.Release(tk)
	if st := g.Stats(); st.Inflight != 0 {
		t.Fatalf("inflight after release = %d, want 0", st.Inflight)
	}
}

func TestGateQueueFull(t *testing.T) {
	g := NewGate(Config{MaxInflight: 1, QueueDepth: -1}, nil) // negative = no queue
	tk, err := g.Acquire(context.Background(), "")
	if err != nil {
		t.Fatalf("first Acquire: %v", err)
	}
	if _, err := g.Acquire(context.Background(), ""); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("second Acquire err = %v, want ErrQueueFull", err)
	}
	if st := g.Stats(); st.Shed != 1 {
		t.Fatalf("shed = %d, want 1", st.Shed)
	}
	g.Release(tk)
}

func TestGateQueueTimeout(t *testing.T) {
	g := NewGate(Config{MaxInflight: 1, QueueDepth: 4}, nil)
	// Crush the service-time estimate so deadline feasibility passes and the
	// request really queues.
	g.srvNs.Store(1)
	tk, err := g.Acquire(context.Background(), "")
	if err != nil {
		t.Fatalf("first Acquire: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := g.Acquire(ctx, ""); !errors.Is(err, ErrQueueTimeout) {
		t.Fatalf("queued Acquire err = %v, want ErrQueueTimeout", err)
	}
	g.Release(tk)
}

func TestGateDeadlineInfeasible(t *testing.T) {
	g := NewGate(Config{MaxInflight: 1, QueueDepth: 4}, nil)
	g.srvNs.Store(int64(time.Second)) // queue wait estimate: ~1s per queued slot
	tk, err := g.Acquire(context.Background(), "")
	if err != nil {
		t.Fatalf("first Acquire: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := g.Acquire(ctx, ""); !errors.Is(err, ErrDeadlineInfeasible) {
		t.Fatalf("Acquire err = %v, want ErrDeadlineInfeasible", err)
	}
	if st := g.Stats(); st.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", st.Rejected)
	}
	g.Release(tk)
}

func TestGateQuota(t *testing.T) {
	g := NewGate(Config{MaxInflight: 8, ClientQPS: 1, ClientBurst: 2}, nil)
	for i := 0; i < 2; i++ {
		tk, err := g.Acquire(context.Background(), "10.0.0.1")
		if err != nil {
			t.Fatalf("Acquire %d: %v", i, err)
		}
		g.Release(tk)
	}
	if _, err := g.Acquire(context.Background(), "10.0.0.1"); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-quota Acquire err = %v, want ErrQuotaExceeded", err)
	}
	// A different client has its own bucket.
	tk, err := g.Acquire(context.Background(), "10.0.0.2")
	if err != nil {
		t.Fatalf("other-client Acquire: %v", err)
	}
	g.Release(tk)
	// The empty client key is unmetered.
	tk, err = g.Acquire(context.Background(), "")
	if err != nil {
		t.Fatalf("unmetered Acquire: %v", err)
	}
	g.Release(tk)
}

func TestGateQuotaRefill(t *testing.T) {
	g := NewGate(Config{MaxInflight: 8, ClientQPS: 1000, ClientBurst: 1}, nil)
	tk, err := g.Acquire(context.Background(), "c")
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	g.Release(tk)
	if _, err := g.Acquire(context.Background(), "c"); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("want immediate ErrQuotaExceeded, got %v", err)
	}
	time.Sleep(5 * time.Millisecond) // 1000 qps refills a token in 1ms
	tk, err = g.Acquire(context.Background(), "c")
	if err != nil {
		t.Fatalf("post-refill Acquire: %v", err)
	}
	g.Release(tk)
}

func TestGateDrain(t *testing.T) {
	g := NewGate(Config{MaxInflight: 2, QueueDepth: 4}, nil)
	tk, err := g.Acquire(context.Background(), "")
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		done <- g.Drain(ctx)
	}()
	// New work is shed once draining starts. The flag is set by the drain
	// goroutine, so acquisitions racing ahead of it may still succeed —
	// release those and retry until the flag lands.
	deadline := time.Now().Add(time.Second)
	for {
		tk2, err := g.Acquire(context.Background(), "")
		if errors.Is(err, ErrDraining) {
			break
		}
		if err == nil {
			g.Release(tk2)
		}
		if time.Now().After(deadline) {
			t.Fatalf("drain flag never observed; last err %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	g.Release(tk)
	if err := <-done; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if st := g.Stats(); st.Inflight != 0 || st.Queued != 0 {
		t.Fatalf("post-drain stats = %+v", st)
	}
}

// TestGateAccounting hammers the gate concurrently and checks the invariant
// the saturation harness relies on: every Acquire outcome is counted, so
// accepted + rejected + shed = offered.
func TestGateAccounting(t *testing.T) {
	g := NewGate(Config{MaxInflight: 2, QueueDepth: 2}, nil)
	const workers, per = 8, 200
	var offered atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
				offered.Add(1)
				tk, err := g.Acquire(ctx, "")
				if err == nil {
					time.Sleep(50 * time.Microsecond)
					g.Release(tk)
				}
				cancel()
			}
		}()
	}
	wg.Wait()
	st := g.Stats()
	if got := st.Accepted + st.Rejected + st.Shed; got != offered.Load() {
		t.Fatalf("accepted(%d)+rejected(%d)+shed(%d) = %d, want offered %d",
			st.Accepted, st.Rejected, st.Shed, got, offered.Load())
	}
	if st.Inflight != 0 || st.Queued != 0 {
		t.Fatalf("leaked slots: %+v", st)
	}
}

func TestGateMetricsRegistered(t *testing.T) {
	reg := obs.NewRegistry()
	g := NewGate(Config{MaxInflight: 1}, reg)
	tk, _ := g.Acquire(context.Background(), "")
	g.Release(tk)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"fsi_admission_accepted_total 1",
		`fsi_admission_rejected_total{reason="quota"} 0`,
		`fsi_admission_shed_total{reason="queue_full"} 0`,
		"fsi_inflight 0",
		"fsi_queue_wait_seconds_count 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q\n%s", want, text)
		}
	}
}

// TestGateAcquireAllocs guards the acceptance criterion that the admission
// fast path adds zero steady-state allocations.
func TestGateAcquireAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation bounds are not meaningful under -race")
	}
	g := NewGate(Config{MaxInflight: 4}, nil)
	ctx := context.Background()
	avg := testing.AllocsPerRun(1000, func() {
		tk, err := g.Acquire(ctx, "")
		if err != nil {
			t.Fatalf("Acquire: %v", err)
		}
		g.Release(tk)
	})
	if avg != 0 {
		t.Fatalf("Acquire/Release allocs = %.1f, want 0", avg)
	}
}

func TestCoalescerSharesResult(t *testing.T) {
	c := NewCoalescer[int](nil)
	release := make(chan struct{})
	started := make(chan struct{})
	var execs atomic.Int32
	var wg sync.WaitGroup
	results := make([]int, 8)
	sharedN := atomic.Int32{}

	wg.Add(1)
	go func() {
		defer wg.Done()
		v, shared, err := c.Do(context.Background(), Key{Canon: "a AND b", Gen: 1}, func() (int, error) {
			close(started)
			<-release
			execs.Add(1)
			return 42, nil
		})
		if err != nil || shared {
			t.Errorf("leader: v=%d shared=%v err=%v", v, shared, err)
		}
		results[0] = v
	}()
	<-started
	for i := 1; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, shared, err := c.Do(context.Background(), Key{Canon: "a AND b", Gen: 1}, func() (int, error) {
				execs.Add(1)
				return 42, nil
			})
			if err != nil {
				t.Errorf("follower %d: %v", i, err)
			}
			if shared {
				sharedN.Add(1)
			}
			results[i] = v
		}(i)
	}
	// Give followers a moment to attach, then let the leader finish.
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	for i, v := range results {
		if v != 42 {
			t.Fatalf("results[%d] = %d, want 42", i, v)
		}
	}
	if execs.Load() != 1 {
		t.Fatalf("fn executed %d times, want 1", execs.Load())
	}
	if sharedN.Load() == 0 {
		t.Fatal("no follower reported shared=true")
	}
}

func TestCoalescerSharesError(t *testing.T) {
	c := NewCoalescer[int](nil)
	boom := errors.New("boom")
	release := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, 4)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, errs[0] = c.Do(context.Background(), Key{Canon: "q", Gen: 7}, func() (int, error) {
			close(started)
			<-release
			return 0, boom
		})
	}()
	<-started
	for i := 1; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = c.Do(context.Background(), Key{Canon: "q", Gen: 7}, func() (int, error) { return 0, boom })
		}(i)
	}
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("errs[%d] = %v, want boom", i, err)
		}
	}
}

func TestCoalescerFollowerCancel(t *testing.T) {
	c := NewCoalescer[int](nil)
	release := make(chan struct{})
	started := make(chan struct{})
	go c.Do(context.Background(), Key{Canon: "q", Gen: 1}, func() (int, error) {
		close(started)
		<-release
		return 1, nil
	})
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, shared, err := c.Do(ctx, Key{Canon: "q", Gen: 1}, func() (int, error) { return 1, nil })
	if !shared || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("follower: shared=%v err=%v, want shared cancel", shared, err)
	}
	close(release)
}

func TestCoalescerPanic(t *testing.T) {
	c := NewCoalescer[int](nil)
	_, _, err := c.Do(context.Background(), Key{Canon: "q", Gen: 1}, func() (int, error) { panic("kernel bug") })
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v, want panic conversion", err)
	}
	// The entry must be gone: a fresh Do runs fn again.
	v, shared, err := c.Do(context.Background(), Key{Canon: "q", Gen: 1}, func() (int, error) { return 5, nil })
	if v != 5 || shared || err != nil {
		t.Fatalf("post-panic Do = (%d, %v, %v), want fresh execution", v, shared, err)
	}
}

func TestCoalescerGenerationsDistinct(t *testing.T) {
	c := NewCoalescer[int](nil)
	release := make(chan struct{})
	started := make(chan struct{})
	go c.Do(context.Background(), Key{Canon: "q", Gen: 1}, func() (int, error) {
		close(started)
		<-release
		return 1, nil
	})
	<-started
	// Same canonical text, newer generation: must NOT coalesce.
	v, shared, err := c.Do(context.Background(), Key{Canon: "q", Gen: 2}, func() (int, error) { return 2, nil })
	if v != 2 || shared || err != nil {
		t.Fatalf("cross-generation Do = (%d, %v, %v), want independent execution", v, shared, err)
	}
	close(release)
}

// TestCoalescerLimitsDistinct pins the page dimension of the key: a query
// paged at one limit never attaches to an in-flight execution of the same
// canonical form and generation paged at another, since the leader's result
// holds a page of the wrong length for it.
func TestCoalescerLimitsDistinct(t *testing.T) {
	c := NewCoalescer[int](nil)
	release := make(chan struct{})
	started := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Do(context.Background(), Key{Canon: "q", Gen: 1, Limit: 10}, func() (int, error) {
			close(started)
			<-release
			return 10, nil
		})
	}()
	<-started
	// A follower that wrongly attached would wait on the held leader; the
	// timeout turns that into a shared context error instead of a hang.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	for _, limit := range []int{-1, 0, 5, 11} {
		v, shared, err := c.Do(ctx, Key{Canon: "q", Gen: 1, Limit: limit}, func() (int, error) { return limit, nil })
		if v != limit || shared || err != nil {
			t.Fatalf("limit %d Do = (%d, %v, %v), want an independent execution", limit, v, shared, err)
		}
	}
	close(release)
	<-done
}
