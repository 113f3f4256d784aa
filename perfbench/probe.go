package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ycsbt/internal/db"
	"ycsbt/internal/measurement"
	"ycsbt/internal/properties"
)

// The benchmark's two db middlewares. The client builds a middleware
// stack per thread and per phase, so each instance belongs to one
// client thread and keeps its figures in that thread's private state.
//
//	perfbench.tx   stacked outermost: times every transaction at
//	               nanosecond resolution, counts operations, checks
//	               every scan result, and counts the bytes and inserts
//	               the workload wrote. On in every run.
//	perfbench.bind stacked innermost, directly over the binding, in
//	               traced runs only: one span per binding call.
const (
	mwTx   = "perfbench.tx"
	mwBind = "perfbench.bind"
)

// activeRun is the run the middlewares report to; the factories are
// registered once per process, so they find their run here. Runs
// never overlap.
var activeRun atomic.Pointer[runState]

func init() {
	db.RegisterMiddleware(mwTx, func(env db.MiddlewareEnv) (db.Middleware, error) {
		r := activeRun.Load()
		if r == nil {
			return nil, errors.New("perfbench: no active run")
		}
		th := r.newThread(env.Recorder)
		return func(inner db.DB) db.DB { return &probe{inner: inner, th: th, outer: true} }, nil
	})
	db.RegisterMiddleware(mwBind, func(env db.MiddlewareEnv) (db.Middleware, error) {
		r := activeRun.Load()
		if r == nil || r.tr == nil {
			return nil, errors.New("perfbench: no traced run")
		}
		th := r.thread(env.Recorder)
		if th == nil {
			return nil, fmt.Errorf("perfbench: %s must be stacked below %s", mwBind, mwTx)
		}
		return func(inner db.DB) db.DB { return &probe{inner: inner, th: th} }, nil
	})
}

// thread is one client thread's figures for one phase. Only that
// thread writes it; the run merges it after the phase has returned.
type thread struct {
	tr *tracer // nil in untraced runs

	txStart time.Time
	txID    uint64  // current transaction span (traced runs)
	lat     []int64 // transaction latencies, ns
	failed  int64

	userBytes    int64 // field bytes the workload wrote
	ackedInserts int64
	scanErrs     int64
	firstScanErr string
}

// runState collects the threads of the phases of one run.
type runState struct {
	tr *tracer

	mu      sync.Mutex
	byRec   map[*measurement.Recorder]*thread
	threads []*thread
}

func newRunState(tr *tracer) *runState {
	return &runState{tr: tr, byRec: make(map[*measurement.Recorder]*thread)}
}

func (r *runState) newThread(rec *measurement.Recorder) *thread {
	th := &thread{tr: r.tr, lat: make([]int64, 0, 1024)}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.byRec[rec] = th
	r.threads = append(r.threads, th)
	return th
}

// thread finds the state the outer middleware of the same client
// thread created; every client thread has its own recorder.
func (r *runState) thread(rec *measurement.Recorder) *thread {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.byRec[rec]
}

// tally is the merged figures of finished phases.
type tally struct {
	lat          []int64
	ops, failed  int64
	userBytes    int64
	ackedInserts int64
	scanErrs     int64
	firstScanErr string
}

// take merges and forgets the threads of the phases since the last
// call. Call it only between phases.
func (r *runState) take() tally {
	r.mu.Lock()
	defer r.mu.Unlock()
	var t tally
	for _, th := range r.threads {
		t.lat = append(t.lat, th.lat...)
		t.failed += th.failed
		t.userBytes += th.userBytes
		t.ackedInserts += th.ackedInserts
		t.scanErrs += th.scanErrs
		if t.firstScanErr == "" {
			t.firstScanErr = th.firstScanErr
		}
	}
	t.ops = int64(len(t.lat))
	r.threads = nil
	r.byRec = make(map[*measurement.Recorder]*thread)
	return t
}

// add merges the counts of o; latencies stay with their round.
func (t *tally) add(o tally) {
	t.ops += o.ops
	t.failed += o.failed
	t.userBytes += o.userBytes
	t.ackedInserts += o.ackedInserts
	t.scanErrs += o.scanErrs
	if t.firstScanErr == "" {
		t.firstScanErr = o.firstScanErr
	}
}

// probe is both middlewares: outer selects the transaction role,
// otherwise it is the binding-call role.
type probe struct {
	inner db.DB
	th    *thread
	outer bool
}

func (p *probe) Init(props *properties.Properties) error { return p.inner.Init(props) }
func (p *probe) Cleanup() error                          { return p.inner.Cleanup() }

// WithTx wraps the binding's in-transaction view with the same role.
func (p *probe) WithTx(tctx *db.TransactionContext) db.DB {
	return &probe{inner: db.TxView(p.inner, tctx), th: p.th, outer: p.outer}
}

// enter starts a binding-call span; outer probes do nothing here.
func (p *probe) enter(ctx context.Context) (context.Context, *spanCtx, int64) {
	if p.outer {
		return ctx, nil, 0
	}
	tr := p.th.tr
	sc := &spanCtx{id: tr.newID()}
	return context.WithValue(ctx, spanKey{}, sc), sc, tr.now()
}

// leave ends a binding-call span.
func (p *probe) leave(sc *spanCtx, start int64, kind, n int) {
	if sc == nil {
		return
	}
	tr := p.th.tr
	end := tr.now()
	tr.record(layerBind, kind, sc.id, p.th.txID, start, end, n)
	if kind == kindCommit && sc.children > 0 {
		tr.commitsWithWrites.Add(1)
		tr.commitWriteNs.Add(end - start)
	}
}

func recordBytes(values db.Record) int64 {
	var n int64
	for _, v := range values {
		n += int64(len(v))
	}
	return n
}

func (p *probe) Read(ctx context.Context, table, key string, fields []string) (db.Record, error) {
	ctx, sc, start := p.enter(ctx)
	rec, err := p.inner.Read(ctx, table, key, fields)
	p.leave(sc, start, kindRead, 0)
	return rec, err
}

func (p *probe) Scan(ctx context.Context, table, startKey string, count int, fields []string) ([]db.KV, error) {
	ctx, sc, start := p.enter(ctx)
	var engineBefore int64
	if sc != nil {
		engineBefore = p.th.tr.cells[layerEngine][kindScan].items.Load()
	}
	kvs, err := p.inner.Scan(ctx, table, startKey, count, fields)
	p.leave(sc, start, kindScan, len(kvs))
	// With one client thread every engine scan during this call is this
	// call's: a result shorter than what the engine returned lost records.
	if sc != nil && p.th.tr.cells[layerEngine][kindScan].items.Load()-engineBefore > int64(len(kvs)) {
		p.th.tr.shortScans.Add(1)
	}
	if p.outer && err == nil {
		if msg := checkScan(startKey, count, kvs); msg != "" {
			p.th.scanErrs++
			if p.th.firstScanErr == "" {
				p.th.firstScanErr = msg
			}
		}
	}
	return kvs, err
}

func (p *probe) Update(ctx context.Context, table, key string, values db.Record) error {
	ctx, sc, start := p.enter(ctx)
	err := p.inner.Update(ctx, table, key, values)
	p.leave(sc, start, kindWrite, 0)
	if p.outer {
		p.th.userBytes += recordBytes(values)
	}
	return err
}

func (p *probe) Insert(ctx context.Context, table, key string, values db.Record) error {
	ctx, sc, start := p.enter(ctx)
	err := p.inner.Insert(ctx, table, key, values)
	p.leave(sc, start, kindWrite, 0)
	if p.outer {
		p.th.userBytes += recordBytes(values)
		if err == nil {
			p.th.ackedInserts++
		}
	}
	return err
}

func (p *probe) Delete(ctx context.Context, table, key string) error {
	ctx, sc, start := p.enter(ctx)
	err := p.inner.Delete(ctx, table, key)
	p.leave(sc, start, kindWrite, 0)
	return err
}

func (p *probe) Start(ctx context.Context) (*db.TransactionContext, error) {
	if p.outer {
		th := p.th
		th.txStart = time.Now()
		if th.tr != nil {
			th.txID = th.tr.newID()
		}
		tctx, err := db.Transactional(p.inner).Start(ctx)
		if err != nil {
			th.finish(true)
		}
		return tctx, err
	}
	ctx, sc, start := p.enter(ctx)
	tctx, err := db.Transactional(p.inner).Start(ctx)
	p.leave(sc, start, kindStart, 0)
	return tctx, err
}

func (p *probe) Commit(ctx context.Context, tctx *db.TransactionContext) error {
	ctx, sc, start := p.enter(ctx)
	err := db.Transactional(p.inner).Commit(ctx, tctx)
	p.leave(sc, start, kindCommit, 0)
	if p.outer {
		p.th.finish(err != nil)
	}
	return err
}

func (p *probe) Abort(ctx context.Context, tctx *db.TransactionContext) error {
	ctx, sc, start := p.enter(ctx)
	err := db.Transactional(p.inner).Abort(ctx, tctx)
	p.leave(sc, start, kindAbort, 0)
	if p.outer {
		p.th.finish(true)
	}
	return err
}

// finish closes the current transaction span.
func (th *thread) finish(failed bool) {
	th.lat = append(th.lat, int64(time.Since(th.txStart)))
	if failed {
		th.failed++
	}
	if th.tr != nil {
		kind := kindCommit
		if failed {
			kind = kindAbort
		}
		th.tr.record(layerTx, kind, th.txID, 0, int64(th.txStart.Sub(th.tr.epoch)), th.tr.now(), 0)
	}
}

// checkScan returns why a scan result is wrong, or "" when it is
// ascending, free of duplicates, starts at or after startKey and holds
// at most count records.
func checkScan(startKey string, count int, kvs []db.KV) string {
	if count >= 0 && len(kvs) > count {
		return fmt.Sprintf("scan from %q asked for %d records and got %d", startKey, count, len(kvs))
	}
	for i, kv := range kvs {
		if kv.Key < startKey {
			return fmt.Sprintf("scan from %q returned %q before its start key", startKey, kv.Key)
		}
		if i > 0 && kv.Key <= kvs[i-1].Key {
			return fmt.Sprintf("scan from %q returned %q after %q: not strictly ascending", startKey, kv.Key, kvs[i-1].Key)
		}
	}
	return ""
}

var (
	_ db.TransactionalDB = (*probe)(nil)
	_ db.ContextualDB    = (*probe)(nil)
)
