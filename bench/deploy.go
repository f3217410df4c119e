package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"pitex"
	"pitex/distrib"
	"pitex/serve"
)

// deployment is one stood-up copy of the real stack: the generated
// dataset, the engine, and the HTTP front door the clients talk to — a
// serve.Server, or a coordinator over three shard servers. Everything
// runs in this process behind loopback listeners.
type deployment struct {
	w     *workload
	net   *pitex.Network
	model *pitex.TagModel
	opts  pitex.Options
	// engine is the prototype the front server clones its pool from; for
	// a fleet it is the remote (coordinator) engine.
	engine *pitex.Engine
	front  *frontend
	client *distrib.Client // fleet only
	// traced is the decorated RemoteEstimator of a traced fleet.
	traced *tracedRemote
	// generateS is the dataset-generation share of the set-up.
	generateS float64
	closers   []func()
}

// frontend is one serve.Server behind a loopback listener.
type frontend struct {
	srv   *serve.Server
	url   string
	close func()
}

// deploy stands the workload's stack up from stackSeed. tr, when non-nil,
// installs the trace decorators a fleet accepts (the RemoteEstimator and
// the shard handlers); single-process deployments have no public seam to
// decorate and ignore it.
func deploy(ctx context.Context, w *workload, tr *tracer) (*deployment, error) {
	d := &deployment{w: w, opts: w.engineOptions()}
	start := time.Now()
	var err error
	d.net, d.model, err = pitex.GenerateDatasetSpec(w.dataset, stackSeed)
	if err != nil {
		return nil, fmt.Errorf("generate %s: %w", w.dataset.Name, err)
	}
	d.generateS = time.Since(start).Seconds()
	if w.fleet {
		err = d.deployFleet(ctx, tr)
	} else {
		d.engine, err = pitex.NewEngine(d.net, d.model, d.opts)
		if err == nil {
			d.front, err = newFrontend(d.engine, nil)
		}
	}
	if err != nil {
		d.Close()
		return nil, fmt.Errorf("deploy %s: %w", w.name, err)
	}
	d.closers = append(d.closers, d.front.close)
	return d, nil
}

// newFrontend wraps an engine in a serve.Server (a coordinator when
// client is non-nil) with ServeOptions{} defaults and starts its listener.
func newFrontend(en *pitex.Engine, client *distrib.Client) (*frontend, error) {
	var srv *serve.Server
	var err error
	if client != nil {
		srv, err = serve.NewCoordinator(en, client, pitex.ServeOptions{})
	} else {
		srv, err = serve.New(en, pitex.ServeOptions{})
	}
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	return &frontend{srv: srv, url: ts.URL, close: func() {
		ts.Close()
		srv.Close()
	}}, nil
}

func (d *deployment) deployFleet(ctx context.Context, tr *tracer) error {
	groups := make([][]string, fleetShards)
	for s := 0; s < fleetShards; s++ {
		ss, err := serve.NewShardServer(d.net, d.model, d.opts, serve.ShardConfig{
			TotalShards: fleetShards, Owned: []int{s},
		})
		if err != nil {
			return err
		}
		d.closers = append(d.closers, ss.Close)
		if err := ss.WaitReady(ctx); err != nil {
			return fmt.Errorf("shard %d: %w", s, err)
		}
		var h http.Handler = ss.Handler()
		if tr != nil {
			h = tr.shardMiddleware(h)
		}
		ts := httptest.NewServer(h)
		d.closers = append(d.closers, ts.Close)
		groups[s] = []string{ts.URL}
	}
	client, err := distrib.Dial(ctx, groups, distrib.Options{JitterSeed: stackSeed})
	if err != nil {
		return err
	}
	d.client = client
	var remote pitex.RemoteEstimator = client
	if tr != nil {
		d.traced = &tracedRemote{inner: client, tr: tr}
		remote = d.traced
	}
	d.engine, err = pitex.NewRemoteEngine(d.net, d.model, d.opts, remote)
	if err != nil {
		client.Close()
		return err
	}
	d.front, err = newFrontend(d.engine, client) // the coordinator owns and closes the client
	if err != nil {
		client.Close()
	}
	return err
}

// Close tears the stack down, front door first.
func (d *deployment) Close() {
	for i := len(d.closers) - 1; i >= 0; i-- {
		d.closers[i]()
	}
	d.closers = nil
}

// liveHeapMB forces a collection and reports what survives it: the
// graph, the index and the pool clones once set-up is done.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
