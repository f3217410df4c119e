package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"pitex"
)

func TestPoolServesSequentially(t *testing.T) {
	p := NewPool(fig2Engine(t, pitex.StrategyLazy), 2, 4, time.Second)
	defer p.Close()
	for i := 0; i < 10; i++ {
		err := p.Do(context.Background(), func(en *pitex.Engine) error {
			res, err := en.Query(0, 2)
			if err != nil {
				return err
			}
			if len(res.Tags) != 2 || res.Tags[0] != 2 || res.Tags[1] != 3 {
				t.Errorf("Tags = %v, want [2 3]", res.Tags)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("Do #%d: %v", i, err)
		}
	}
	st := p.Stats()
	if st.Served != 10 || st.InUse != 0 || st.Waiting != 0 {
		t.Errorf("stats = %+v, want served 10, idle", st)
	}
}

// block occupies every engine of the pool until the returned release func
// is called.
func block(t *testing.T, p *Pool, n int) (release func()) {
	t.Helper()
	gate := make(chan struct{})
	started := make(chan struct{}, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = p.Do(context.Background(), func(*pitex.Engine) error {
				started <- struct{}{}
				<-gate
				return nil
			})
		}()
	}
	for i := 0; i < n; i++ {
		<-started
	}
	return func() {
		close(gate)
		wg.Wait()
	}
}

func TestPoolShedsWhenOverloaded(t *testing.T) {
	p := NewPool(fig2Engine(t, pitex.StrategyLazy), 1, 0, time.Second)
	defer p.Close()
	release := block(t, p, 1)
	defer release()
	// Admission bound is size+depth = 1, already consumed.
	err := p.Do(context.Background(), func(*pitex.Engine) error { return nil })
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if st := p.Stats(); st.Rejected != 1 {
		t.Errorf("Rejected = %d, want 1", st.Rejected)
	}
}

// TestGateShedNeverCountsPastBound pins the admission count to the bound
// while requests are being shed. A shed that counted itself in and back
// out would, for that moment, make a request arriving just after a leave
// see a full gate and be shed with a place free.
func TestGateShedNeverCountsPastBound(t *testing.T) {
	g := newGate(1, 1, time.Second)
	for i := 0; i < 2; i++ {
		g.admitted.Add(1) // the slot and the queue place are both taken
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := g.enter(context.Background()); !errors.Is(err, ErrOverloaded) {
					t.Errorf("enter on a full gate = %v, want ErrOverloaded", err)
					return
				}
			}
		}()
	}
	for i := 0; i < 200000; i++ {
		if n := g.admitted.Load(); n > g.bound {
			t.Errorf("admitted = %d past bound %d", n, g.bound)
			break
		}
	}
	close(stop)
	wg.Wait()
}

func TestPoolQueueTimeout(t *testing.T) {
	p := NewPool(fig2Engine(t, pitex.StrategyLazy), 1, 1, 20*time.Millisecond)
	defer p.Close()
	release := block(t, p, 1)
	defer release()
	err := p.Do(context.Background(), func(*pitex.Engine) error { return nil })
	if !errors.Is(err, ErrQueueTimeout) {
		t.Fatalf("err = %v, want ErrQueueTimeout", err)
	}
	if st := p.Stats(); st.Timeouts != 1 {
		t.Errorf("Timeouts = %d, want 1", st.Timeouts)
	}
}

func TestPoolContextCancellation(t *testing.T) {
	p := NewPool(fig2Engine(t, pitex.StrategyLazy), 1, 1, 0)
	defer p.Close()
	release := block(t, p, 1)
	defer release()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- p.Do(ctx, func(*pitex.Engine) error { return nil })
	}()
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestPoolClose(t *testing.T) {
	p := NewPool(fig2Engine(t, pitex.StrategyLazy), 1, 1, 0)
	release := block(t, p, 1)
	waiter := make(chan error, 1)
	go func() {
		waiter <- p.Do(context.Background(), func(*pitex.Engine) error { return nil })
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter queue up
	p.Close()
	if err := <-waiter; !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("queued waiter err = %v, want ErrPoolClosed", err)
	}
	release() // the in-flight request finishes normally
	err := p.Do(context.Background(), func(*pitex.Engine) error { return nil })
	if !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("post-close err = %v, want ErrPoolClosed", err)
	}
	p.Close() // idempotent
}

func TestPoolConcurrentLoad(t *testing.T) {
	p := NewPool(fig2Engine(t, pitex.StrategyIndexPruned), 4, 64, time.Minute)
	defer p.Close()
	const requests = 64
	errs := make(chan error, requests)
	for i := 0; i < requests; i++ {
		go func(u int) {
			errs <- p.Do(context.Background(), func(en *pitex.Engine) error {
				_, err := en.Query(u%7, 2)
				return err
			})
		}(i)
	}
	for i := 0; i < requests; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("concurrent Do: %v", err)
		}
	}
	if st := p.Stats(); st.Served != requests {
		t.Errorf("Served = %d, want %d", st.Served, requests)
	}
}
