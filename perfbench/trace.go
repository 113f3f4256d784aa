package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"ycsbt/internal/kvstore"
	"ycsbt/internal/txn"
)

// The layers the traced run records, outermost first. Each is timed
// from outside, at its public interface:
//
//	layerTx     the whole transaction, Start to end of Commit/Abort,
//	            seen by the outermost db middleware (probe.go)
//	layerBind   every call into the binding, seen by the innermost
//	            db middleware
//	layerStore  every txn.Store call the transaction manager makes
//	            (cew-txn only)
//	layerEngine every kvstore.Engine call the server core makes
const (
	layerTx = iota
	layerBind
	layerStore
	layerEngine
	numLayers
)

var layerNames = [numLayers]string{"tx", "bind", "store", "engine"}

// Call kinds within a layer.
const (
	kindRead = iota
	kindWrite
	kindScan
	kindStart
	kindCommit
	kindAbort
	numKinds
)

var kindNames = [numKinds]string{"read", "write", "scan", "start", "commit", "abort"}

// span is one timed call. Start and end are nanoseconds since the
// tracer's epoch; n is the records a scan returned (0 otherwise).
// parent is 0 when the caller is on another goroutine (engine spans
// run on server goroutines, which the loopback socket separates from
// the client call that caused them).
type span struct {
	id, parent uint64
	start, end int64
	layer      uint8
	kind       uint8
	n          int32
}

// acc accumulates one (layer, kind) cell: calls, busy nanoseconds and
// records moved.
type acc struct {
	calls, ns, items atomic.Int64
}

// cell is a plain copy of an acc.
type cell struct{ calls, ns, items int64 }

// tracer keeps every span of a traced run in memory and accumulates
// per-layer totals. Spans are written out once the run has ended.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	cells [numLayers][numKinds]acc

	spans   []span
	next    atomic.Int64 // slots handed out
	stored  atomic.Int64 // slots written; orders the writes before writeSpans
	dropped atomic.Int64

	// httpRequests counts requests that reached the HTTP front end.
	httpRequests atomic.Int64
	// shortScans counts binding scans that delivered fewer records than
	// the engine returned for them.
	shortScans atomic.Int64
	// commitsWithWrites and commitWriteNs cover the binding Commit
	// calls that issued at least one store call (transactions that
	// wrote).
	commitsWithWrites, commitWriteNs atomic.Int64
}

// maxSpans bounds the in-memory span buffer (about 40 B a span).
const maxSpans = 1 << 21

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, maxSpans)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

// record accumulates one finished call and keeps its span.
func (t *tracer) record(layer, kind int, id, parent uint64, start, end int64, n int) {
	c := &t.cells[layer][kind]
	c.calls.Add(1)
	c.ns.Add(end - start)
	c.items.Add(int64(n))
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return
	}
	t.spans[i] = span{id: id, parent: parent, start: start, end: end, layer: uint8(layer), kind: uint8(kind), n: int32(n)}
	t.stored.Add(1)
}

// snapshot copies the accumulators.
func (t *tracer) snapshot() (out [numLayers][numKinds]cell) {
	for l := range t.cells {
		for k := range t.cells[l] {
			c := &t.cells[l][k]
			out[l][k] = cell{calls: c.calls.Load(), ns: c.ns.Load(), items: c.items.Load()}
		}
	}
	return out
}

// writeSpans writes the kept spans as tab-separated lines. Call it
// only once no traced call is in flight.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "id\tparent\tlayer\tkind\tstart_ns\tend_ns\trecords")
	n := min(t.stored.Load(), int64(len(t.spans)))
	for _, s := range t.spans[:n] {
		fmt.Fprintf(w, "%d\t%d\t%s\t%s\t%d\t%d\t%d\n", s.id, s.parent, layerNames[s.layer], kindNames[s.kind], s.start, s.end, s.n)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanCtx links calls made on the binding's goroutine to the binding
// span that made them; children counts those calls.
type spanCtx struct {
	id       uint64
	children int
}

type spanKey struct{}

func parentOf(ctx context.Context) uint64 {
	if sc, ok := ctx.Value(spanKey{}).(*spanCtx); ok {
		sc.children++
		return sc.id
	}
	return 0
}

// tracedStore times the txn.Store calls of the transaction manager.
type tracedStore struct {
	inner txn.Store
	t     *tracer
}

func (s *tracedStore) Name() string { return s.inner.Name() }

func (s *tracedStore) Get(ctx context.Context, table, key string) (*kvstore.VersionedRecord, error) {
	parent, start := parentOf(ctx), s.t.now()
	rec, err := s.inner.Get(ctx, table, key)
	s.t.record(layerStore, kindRead, s.t.newID(), parent, start, s.t.now(), 0)
	return rec, err
}

func (s *tracedStore) Put(ctx context.Context, table, key string, fields map[string][]byte, expect uint64) (uint64, error) {
	parent, start := parentOf(ctx), s.t.now()
	v, err := s.inner.Put(ctx, table, key, fields, expect)
	s.t.record(layerStore, kindWrite, s.t.newID(), parent, start, s.t.now(), 0)
	return v, err
}

func (s *tracedStore) Delete(ctx context.Context, table, key string, expect uint64) error {
	parent, start := parentOf(ctx), s.t.now()
	err := s.inner.Delete(ctx, table, key, expect)
	s.t.record(layerStore, kindWrite, s.t.newID(), parent, start, s.t.now(), 0)
	return err
}

func (s *tracedStore) Scan(ctx context.Context, table, startKey string, count int) ([]kvstore.VersionedKV, error) {
	parent, start := parentOf(ctx), s.t.now()
	kvs, err := s.inner.Scan(ctx, table, startKey, count)
	s.t.record(layerStore, kindScan, s.t.newID(), parent, start, s.t.now(), len(kvs))
	return kvs, err
}

// tracedEngine times the Engine calls the server makes. Methods it
// does not override pass straight through.
type tracedEngine struct {
	kvstore.Engine
	t *tracer
}

func (e *tracedEngine) rec(kind int, start int64, n int) {
	e.t.record(layerEngine, kind, e.t.newID(), 0, start, e.t.now(), n)
}

func (e *tracedEngine) Get(table, key string) (*kvstore.VersionedRecord, error) {
	start := e.t.now()
	r, err := e.Engine.Get(table, key)
	e.rec(kindRead, start, 0)
	return r, err
}

func (e *tracedEngine) BatchGet(reqs []kvstore.GetReq) []kvstore.GetResult {
	start := e.t.now()
	out := e.Engine.BatchGet(reqs)
	e.rec(kindRead, start, 0)
	return out
}

func (e *tracedEngine) Put(table, key string, fields map[string][]byte) (uint64, error) {
	start := e.t.now()
	v, err := e.Engine.Put(table, key, fields)
	e.rec(kindWrite, start, 0)
	return v, err
}

func (e *tracedEngine) Insert(table, key string, fields map[string][]byte) (uint64, error) {
	start := e.t.now()
	v, err := e.Engine.Insert(table, key, fields)
	e.rec(kindWrite, start, 0)
	return v, err
}

func (e *tracedEngine) PutIfVersion(table, key string, fields map[string][]byte, expect uint64) (uint64, error) {
	start := e.t.now()
	v, err := e.Engine.PutIfVersion(table, key, fields, expect)
	e.rec(kindWrite, start, 0)
	return v, err
}

func (e *tracedEngine) Update(table, key string, fields map[string][]byte) (uint64, error) {
	start := e.t.now()
	v, err := e.Engine.Update(table, key, fields)
	e.rec(kindWrite, start, 0)
	return v, err
}

func (e *tracedEngine) Delete(table, key string) error {
	start := e.t.now()
	err := e.Engine.Delete(table, key)
	e.rec(kindWrite, start, 0)
	return err
}

func (e *tracedEngine) DeleteIfVersion(table, key string, expect uint64) error {
	start := e.t.now()
	err := e.Engine.DeleteIfVersion(table, key, expect)
	e.rec(kindWrite, start, 0)
	return err
}

func (e *tracedEngine) BatchApply(muts []kvstore.Mutation) []kvstore.MutResult {
	start := e.t.now()
	out := e.Engine.BatchApply(muts)
	e.rec(kindWrite, start, 0)
	return out
}

func (e *tracedEngine) Scan(table, startKey string, count int) ([]kvstore.VersionedKV, error) {
	start := e.t.now()
	kvs, err := e.Engine.Scan(table, startKey, count)
	e.rec(kindScan, start, len(kvs))
	return kvs, err
}

// countRequests counts the requests that reach the HTTP front end.
func (t *tracer) countRequests(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.httpRequests.Add(1)
		h.ServeHTTP(w, r)
	})
}
