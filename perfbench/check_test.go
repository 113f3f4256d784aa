package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ycsbt/internal/db"
	"ycsbt/internal/kvstore"
)

// The self-test of the output checks: each check must pass on a clean
// run and fail when an engine decorator injects the fault it exists to
// catch. The runs are small copies of the benchmark's workloads.

// faultEngine corrupts writes or scans once it is armed: the first
// one, except for flipped bytes, which go into every write so a later
// overwrite of the same field cannot hide them.
type faultEngine struct {
	kvstore.Engine
	fault string // "credit", "flip", "insert" or "reorder"
	armed atomic.Bool
	fired atomic.Bool
}

func (f *faultEngine) fire() bool { return f.armed.Load() && f.fired.CompareAndSwap(false, true) }

// mutate returns the fields to store in place of fields, or drop=true
// to acknowledge the write without applying it. put marks a write of a
// whole record (an insert on the core workloads), as opposed to a
// merge of some fields.
func (f *faultEngine) mutate(table string, fields map[string][]byte, put bool) (out map[string][]byte, drop bool) {
	if table != "usertable" || fields == nil {
		return fields, false
	}
	switch f.fault {
	case "credit": // a transfer loses $1: one committed balance is written one short
		if _, prepared := fields["_txn:state"]; prepared || fields["field0"] == nil || !f.fire() {
			return fields, false
		}
		out = copyFields(fields)
		out["field0"] = []byte(decrement(string(fields["field0"])))
		return out, false
	case "flip": // a stored byte differs from what the client sent
		if !f.armed.Load() {
			return fields, false
		}
		f.fired.Store(true)
		out = copyFields(fields)
		for name, v := range out {
			b := append([]byte(nil), v...)
			b[0] ^= 1
			out[name] = b
			break
		}
		return out, false
	case "insert": // an acknowledged insert is never applied
		return fields, put && f.fire()
	}
	return fields, false
}

func copyFields(in map[string][]byte) map[string][]byte {
	out := make(map[string][]byte, len(in))
	for k, v := range in {
		out[k] = v
	}
	return out
}

// decrement subtracts one from a decimal balance.
func decrement(s string) string {
	b := []byte(s)
	i := len(b) - 1
	for i >= 0 && b[i] == '0' {
		b[i] = '9'
		i--
	}
	if i >= 0 {
		b[i]--
	}
	return string(b)
}

func (f *faultEngine) Put(table, key string, fields map[string][]byte) (uint64, error) {
	fields, drop := f.mutate(table, fields, true)
	if drop {
		return 1, nil
	}
	return f.Engine.Put(table, key, fields)
}

func (f *faultEngine) Insert(table, key string, fields map[string][]byte) (uint64, error) {
	fields, drop := f.mutate(table, fields, true)
	if drop {
		return 1, nil
	}
	return f.Engine.Insert(table, key, fields)
}

func (f *faultEngine) PutIfVersion(table, key string, fields map[string][]byte, expect uint64) (uint64, error) {
	fields, drop := f.mutate(table, fields, true)
	if drop {
		return 1, nil
	}
	return f.Engine.PutIfVersion(table, key, fields, expect)
}

func (f *faultEngine) Update(table, key string, fields map[string][]byte) (uint64, error) {
	fields, _ = f.mutate(table, fields, false)
	return f.Engine.Update(table, key, fields)
}

func (f *faultEngine) BatchApply(muts []kvstore.Mutation) []kvstore.MutResult {
	kept := make([]kvstore.Mutation, 0, len(muts))
	idx := make([]int, 0, len(muts))
	out := make([]kvstore.MutResult, len(muts))
	for i, m := range muts {
		if m.Op != kvstore.MutDelete {
			var drop bool
			m.Fields, drop = f.mutate(m.Table, m.Fields, m.Op == kvstore.MutPut)
			if drop {
				out[i] = kvstore.MutResult{Version: 1}
				continue
			}
		}
		kept = append(kept, m)
		idx = append(idx, i)
	}
	for j, r := range f.Engine.BatchApply(kept) {
		out[idx[j]] = r
	}
	return out
}

func (f *faultEngine) Scan(table, startKey string, count int) ([]kvstore.VersionedKV, error) {
	kvs, err := f.Engine.Scan(table, startKey, count)
	if f.fault == "reorder" && len(kvs) >= 2 && f.fire() {
		kvs = append([]kvstore.VersionedKV(nil), kvs...)
		kvs[0], kvs[1] = kvs[1], kvs[0]
	}
	return kvs, err
}

// smallSpec shrinks a benchmark workload for the self-test.
func smallSpec(t *testing.T, name string) spec {
	t.Helper()
	sp, err := findSpec(name)
	if err != nil {
		t.Fatal(err)
	}
	props := make(map[string]string, len(sp.props))
	for k, v := range sp.props {
		props[k] = v
	}
	props["recordcount"] = "300"
	sp.props = props
	sp.roundOps = 400
	return sp
}

// runChecked sets up the workload with the fault decorator, arms it
// after the load, runs two rounds and returns whether the fault fired
// and the output checks' verdict.
func runChecked(t *testing.T, name, fault string) (fired bool, err error) {
	t.Helper()
	f := &faultEngine{fault: fault}
	s, err := setup(smallSpec(t, name), 7, t.TempDir(), stackOptions{
		wrapEngine: func(e kvstore.Engine) kvstore.Engine { f.Engine = e; return f },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.close(); err != nil {
			t.Error(err)
		}
	}()
	f.armed.Store(true)
	for i := 0; i < 2; i++ {
		t0, err := s.round(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if t0.ops != 400 || t0.failed != 0 {
			t.Fatalf("round: %d ops, %d failed", t0.ops, t0.failed)
		}
	}
	// The benchmark's own checks run before the program's validation,
	// so the error names the check that tripped.
	return f.fired.Load(), s.check()
}

func TestChecksPassOnCleanRuns(t *testing.T) {
	for _, name := range []string{"cew-txn", "ycsb-a", "ycsb-e"} {
		t.Run(name, func(t *testing.T) {
			if _, err := runChecked(t, name, ""); err != nil {
				t.Fatalf("clean run failed its checks: %v", err)
			}
		})
	}
}

func TestChecksCatchInjectedFaults(t *testing.T) {
	for _, tc := range []struct {
		workload, fault, want string
	}{
		{"cew-txn", "credit", "want totalcash"},
		{"ycsb-a", "flip", "holds"},
		{"ycsb-e", "insert", "loaded + acknowledged inserts"},
		{"ycsb-e", "reorder", "not strictly ascending"},
	} {
		t.Run(tc.workload+"/"+tc.fault, func(t *testing.T) {
			fired, err := runChecked(t, tc.workload, tc.fault)
			if !fired {
				t.Fatal("the fault never fired")
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("checks returned %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

func TestCheckScan(t *testing.T) {
	kvs := func(keys ...string) []db.KV {
		out := make([]db.KV, len(keys))
		for i, k := range keys {
			out[i].Key = k
		}
		return out
	}
	for _, tc := range []struct {
		start string
		count int
		keys  []db.KV
		bad   bool
	}{
		{"b", 3, kvs("b", "c", "d"), false},
		{"b", 3, kvs(), false},
		{"b", 2, kvs("b", "c", "d"), true}, // longer than asked
		{"b", 3, kvs("a", "b", "c"), true}, // before the start key
		{"b", 3, kvs("b", "d", "c"), true}, // out of order
		{"b", 3, kvs("b", "c", "c"), true}, // duplicate
	} {
		if got := checkScan(tc.start, tc.count, tc.keys) != ""; got != tc.bad {
			t.Errorf("checkScan(%q, %d, %v) flagged=%v, want %v", tc.start, tc.count, tc.keys, got, tc.bad)
		}
	}
}

// TestReportsEveryDeclaredMetric runs each workload briefly, untraced
// and traced, and checks that the metrics printed are exactly the
// ones BENCHMARK.json declares, with their units.
func TestReportsEveryDeclaredMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	same := func(t *testing.T, got map[string]metric, want []struct{ Name, Unit string }) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("printed %d metrics, BENCHMARK.json declares %d", len(got), len(want))
		}
		for _, w := range want {
			if m, ok := got[w.Name]; !ok || m.Unit != w.Unit {
				t.Errorf("metric %s: printed %+v (present=%v), want unit %s", w.Name, m, ok, w.Unit)
			}
		}
	}
	for _, name := range []string{"cew-txn", "ycsb-a", "ycsb-e"} {
		t.Run(name, func(t *testing.T) {
			sp := smallSpec(t, name)
			e2e := &result{metrics: make(map[string]metric)}
			if err := runEndToEnd(e2e, sp, 3, 200*time.Millisecond, t.TempDir()); err != nil {
				t.Fatal(err)
			}
			same(t, e2e.metrics, decl.EndToEnd)
			for n, m := range e2e.metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s reads %v", n, m.Value)
				}
			}

			layers := &result{metrics: make(map[string]metric)}
			dir := t.TempDir()
			if err := runLayers(layers, sp, 3, 200*time.Millisecond, dir, filepath.Join(dir, "spans.tsv")); err != nil {
				t.Fatal(err)
			}
			same(t, layers.metrics, decl.PerLayer)
			// Every data request rides the negotiated frames.
			if v := layers.metrics["httpkv.http_requests"].Value; v != 0 {
				t.Errorf("%v HTTP requests in the timed phase, want 0", v)
			}
			if v := layers.metrics["txn.store_calls_per_txn"].Value; (v > 0) != sp.txn {
				t.Errorf("txn.store_calls_per_txn = %v on %s", v, name)
			}
		})
	}
}
