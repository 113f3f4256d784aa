package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"time"

	"ycsbt/internal/client"
	"ycsbt/internal/db"
	"ycsbt/internal/httpkv"
	"ycsbt/internal/kvstore"
	"ycsbt/internal/kvwire"
	"ycsbt/internal/measurement"
	"ycsbt/internal/properties"
	"ycsbt/internal/txn"
	"ycsbt/internal/workload"
)

// spec is one benchmark workload: the workload properties, and
// whether operations run as client-coordinated transactions (txn
// manager over a RemoteStore) or over the non-transactional rawhttp
// binding.
type spec struct {
	name  string
	props map[string]string
	txn   bool
	// roundOps is the operations of one round. The timed phase runs
	// whole rounds, each the same seeded operation sequence.
	roundOps int64
}

// stackOptions are the hooks the self-test and the traced run use.
type stackOptions struct {
	tr *tracer
	// wrapEngine, when set, decorates the engine handed to the server
	// (the self-test injects faults here).
	wrapEngine func(kvstore.Engine) kvstore.Engine
}

// stack is one in-process server plus the client side wired to it.
type stack struct {
	spec  spec
	props *properties.Properties
	run   *runState

	dir     string
	store   *kvstore.Store
	wireSrv *kvwire.Server
	httpSrv *http.Server
	served  chan struct{} // closed when both listeners have stopped

	binding db.DB
	mgr     *txn.Manager // cew-txn only
	w       workload.Workload
	mw      string // the timed phase's middleware stack

	// Over every round, warm-up included: inserts the binding
	// acknowledged and scan results that failed checkScan.
	acked        int64
	scanErrs     int64
	firstScanErr string
}

// setup builds the server the way cmd/kvserver does with its defaults
// (8 shards, WAL without fsync, no group commit, obs off), on
// ephemeral loopback ports, connects the client side and loads the
// records. The WAL lives in a fresh directory under base.
func setup(sp spec, seed int64, base string, opts stackOptions) (s *stack, err error) {
	props := properties.New()
	for k, v := range sp.props {
		props.Set(k, v)
	}
	props.Set("seed", strconv.FormatInt(seed, 10))
	// At most one connection per client thread.
	props.Set("rawhttp.pool_size", strconv.Itoa(clientThreads))
	props.Set("rawhttp.wire_conns", strconv.Itoa(clientThreads))

	s = &stack{spec: sp, props: props, run: newRunState(opts.tr), served: make(chan struct{})}
	defer func() {
		if err != nil {
			s.close()
			s = nil
		}
	}()
	if err := os.MkdirAll(base, 0o755); err != nil {
		return s, err
	}
	if s.dir, err = os.MkdirTemp(base, "wal-"); err != nil {
		return s, err
	}
	s.store, err = kvstore.Open(kvstore.Options{
		Path:      s.dir,
		Shards:    kvstore.DefaultShards,
		Retention: kvstore.DefaultRetention,
	})
	if err != nil {
		return s, fmt.Errorf("opening store: %w", err)
	}
	var eng kvstore.Engine = s.store
	if opts.wrapEngine != nil {
		eng = opts.wrapEngine(eng)
	}
	if opts.tr != nil {
		eng = &tracedEngine{Engine: eng, t: opts.tr}
	}

	core := kvwire.NewCore(eng, nil, 0)
	wireLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return s, err
	}
	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		wireLn.Close()
		return s, err
	}
	s.wireSrv = kvwire.NewServer(core, kvwire.ServerOptions{})
	var handler http.Handler = httpkv.NewServerWithOptions(eng, httpkv.ServerOptions{
		Core:     core,
		WireAddr: wireLn.Addr().String(),
	})
	if opts.tr != nil {
		handler = opts.tr.countRequests(handler)
	}
	s.httpSrv = &http.Server{Handler: handler}
	wireDone, httpDone := make(chan struct{}), make(chan struct{})
	go func() { defer close(wireDone); s.wireSrv.Serve(wireLn) }()
	go func() { defer close(httpDone); s.httpSrv.Serve(httpLn) }()
	go func() { <-wireDone; <-httpDone; close(s.served) }()
	baseURL := "http://" + httpLn.Addr().String()

	if sp.txn {
		var st txn.Store = httpkv.NewRemoteStore("remote", baseURL, nil)
		if opts.tr != nil {
			st = &tracedStore{inner: st, t: opts.tr}
		}
		if s.mgr, err = txn.NewManager(txn.Options{}, st); err != nil {
			return s, err
		}
		s.binding = txn.NewBinding(s.mgr)
	} else {
		props.Set("rawhttp.url", baseURL)
		if s.binding, err = db.Open("rawhttp"); err != nil {
			return s, err
		}
	}
	if err := s.binding.Init(props); err != nil {
		return s, fmt.Errorf("binding init: %w", err)
	}
	if s.w, err = workload.New(props.GetString("workload", "core")); err != nil {
		return s, err
	}
	if err := s.w.Init(props, measurement.NewRegistry(0)); err != nil {
		return s, fmt.Errorf("workload init: %w", err)
	}
	s.mw = mwTx + ",metered"
	if opts.tr != nil {
		s.mw += "," + mwBind
	}

	// Load on one thread per CPU: the inserts touch distinct keys, so
	// the loaded data is the same for any thread count.
	records := props.GetInt64("recordcount", 0)
	c, err := client.New(client.Config{
		Threads:        loadThreads(),
		RecordCount:    records,
		SkipValidation: true,
		Props:          props,
	}, s.w, s.binding, nil)
	if err != nil {
		return s, err
	}
	res, err := c.Load(context.Background())
	if err != nil {
		return s, fmt.Errorf("load phase: %w", err)
	}
	if res.Aborts != 0 || res.Operations != records {
		return s, fmt.Errorf("load phase: %d of %d inserts, %d failed", res.Operations, records, res.Aborts)
	}
	return s, nil
}

// round runs one round of the timed phase: roundOps operations. Each round starts the per-thread generators
// afresh from the seed, so every round issues the same operations.
func (s *stack) round(ctx context.Context) (tally, error) {
	activeRun.Store(s.run)
	defer activeRun.Store(nil)
	c, err := client.New(client.Config{
		Threads:        clientThreads,
		OperationCount: s.spec.roundOps,
		RecordCount:    s.props.GetInt64("recordcount", 0),
		Middleware:     s.mw,
		SkipValidation: true,
		Props:          s.props,
	}, s.w, s.binding, nil)
	if err != nil {
		return tally{}, err
	}
	if _, err := c.Run(ctx); err != nil {
		return tally{}, err
	}
	t := s.run.take()
	s.acked += t.ackedInserts
	s.scanErrs += t.scanErrs
	if s.firstScanErr == "" {
		s.firstScanErr = t.firstScanErr
	}
	return t, nil
}

// close stops the servers, closes the store and removes the WAL.
func (s *stack) close() error {
	var errs []error
	if s.binding != nil {
		errs = append(errs, s.binding.Cleanup())
	}
	if s.wireSrv != nil {
		// No request is in flight here. Close, not Shutdown, for HTTP:
		// Shutdown waits up to 5 s for a connection the client dialed
		// but never used.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		errs = append(errs, s.wireSrv.Shutdown(ctx))
		errs = append(errs, s.httpSrv.Close())
		cancel()
		<-s.served
	}
	if s.store != nil {
		errs = append(errs, s.store.Close())
	}
	if s.dir != "" {
		errs = append(errs, os.RemoveAll(s.dir))
	}
	return errors.Join(errs...)
}
