package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"pitex"
)

// doOn runs fn on an engine of srv's serving generation through the
// admission path every query takes.
func doOn(srv *Server, ctx context.Context, fn func(*pitex.Engine) error) error {
	return srv.do(ctx, srv.gen.Load(), "selling-points", fn)
}

func TestPoolServesSequentially(t *testing.T) {
	srv := newTestServer(t, pitex.ServeOptions{PoolSize: 2, QueueDepth: 4, QueueTimeout: time.Second})
	for i := 0; i < 10; i++ {
		err := doOn(srv, context.Background(), func(en *pitex.Engine) error {
			res, err := en.Query(context.Background(), pitex.Request{User: 0, K: 2})
			if err != nil {
				return err
			}
			if len(res.Tags) != 2 || res.Tags[0] != 2 || res.Tags[1] != 3 {
				t.Errorf("Tags = %v, want [2 3]", res.Tags)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("do #%d: %v", i, err)
		}
	}
	st := srv.Stats().Pool
	if st.Served != 10 || st.InUse != 0 || st.Waiting != 0 {
		t.Errorf("stats = %+v, want served 10, idle", st)
	}
	// Sequential requests reuse one clone: the stack is back to its
	// PoolSize clones, none built on demand.
	if n := len(srv.gen.Load().clones.idle); n != 2 {
		t.Errorf("%d idle clones, want 2", n)
	}
}

// block occupies n engines of srv until the returned release func is
// called.
func block(t *testing.T, srv *Server, n int) (release func()) {
	t.Helper()
	gate := make(chan struct{})
	started := make(chan struct{}, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = doOn(srv, context.Background(), func(*pitex.Engine) error {
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
	// A negative QueueDepth queues nothing.
	srv := newTestServer(t, pitex.ServeOptions{PoolSize: 1, QueueDepth: -1, QueueTimeout: time.Second})
	release := block(t, srv, 1)
	defer release()
	// Admission bound is size+depth = 1, already consumed.
	err := doOn(srv, context.Background(), func(*pitex.Engine) error { return nil })
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if st := srv.Stats().Pool; st.Rejected != 1 {
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
	srv := newTestServer(t, pitex.ServeOptions{PoolSize: 1, QueueDepth: 1, QueueTimeout: 20 * time.Millisecond})
	release := block(t, srv, 1)
	defer release()
	err := doOn(srv, context.Background(), func(*pitex.Engine) error { return nil })
	if !errors.Is(err, ErrQueueTimeout) {
		t.Fatalf("err = %v, want ErrQueueTimeout", err)
	}
	if st := srv.Stats().Pool; st.Timeouts != 1 {
		t.Errorf("Timeouts = %d, want 1", st.Timeouts)
	}
}

func TestPoolContextCancellation(t *testing.T) {
	// A negative QueueTimeout waits until cancellation.
	srv := newTestServer(t, pitex.ServeOptions{PoolSize: 1, QueueDepth: 1, QueueTimeout: -1})
	release := block(t, srv, 1)
	defer release()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- doOn(srv, ctx, func(*pitex.Engine) error { return nil })
	}()
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestPoolClose(t *testing.T) {
	srv := newTestServer(t, pitex.ServeOptions{PoolSize: 1, QueueDepth: 1, QueueTimeout: -1})
	release := block(t, srv, 1)
	waiter := make(chan error, 1)
	go func() {
		waiter <- doOn(srv, context.Background(), func(*pitex.Engine) error { return nil })
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter queue up
	srv.Close()
	if err := <-waiter; !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("queued waiter err = %v, want ErrPoolClosed", err)
	}
	release() // the in-flight request finishes normally
	err := doOn(srv, context.Background(), func(*pitex.Engine) error { return nil })
	if !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("post-close err = %v, want ErrPoolClosed", err)
	}
	srv.Close() // idempotent
}

func TestPoolConcurrentLoad(t *testing.T) {
	srv := newTestServer(t, pitex.ServeOptions{PoolSize: 4, QueueDepth: 64, QueueTimeout: time.Minute})
	const requests = 64
	errs := make(chan error, requests)
	for i := 0; i < requests; i++ {
		go func(u int) {
			errs <- doOn(srv, context.Background(), func(en *pitex.Engine) error {
				_, err := en.Query(context.Background(), pitex.Request{User: u % 7, K: 2})
				return err
			})
		}(i)
	}
	for i := 0; i < requests; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("concurrent do: %v", err)
		}
	}
	if st := srv.Stats().Pool; st.Served != requests {
		t.Errorf("Served = %d, want %d", st.Served, requests)
	}
	if n := len(srv.gen.Load().clones.idle); n != 4 {
		t.Errorf("%d idle clones after the load, want 4", n)
	}
}
