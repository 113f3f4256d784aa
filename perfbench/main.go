// Command perfbench is the repository's end-to-end benchmark. One
// process hosts the key-value server (built with the constructors
// cmd/kvserver uses, on ephemeral loopback ports) and drives it with
// the ycsbt client executor and workload generators. It measures one
// workload for a fixed time, checks the stored data against values it
// derives itself, and prints its metrics as one JSON line, the last
// line of standard output.
//
//	perfbench --workload <cew-txn|ycsb-a|ycsb-e> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// runs the workload twice, untraced and then with every layer timed,
// and reports the per-layer metrics and the tracing overhead. See
// README.md for the metrics, the workloads and their reasons.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload to run: cew-txn, ycsb-a or ycsb-e")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "length of the timed phase in seconds")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 the end-to-end metrics")
	dir := flag.String("dir", ".bench_build", "directory for the temporary WAL and the span file")
	flag.Parse()

	res, err := run(*name, *seed, *seconds, *traced, *dir)
	if res == nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.print(os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one invocation prints.
type result struct {
	header    []string
	correct   bool
	attempted int64
	failed    int64
	metrics   map[string]metric
}

func (r *result) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) print(f *os.File) {
	w := bufio.NewWriter(f)
	for _, l := range r.header {
		fmt.Fprintln(w, l)
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-36s %14.4f %s\n", n, r.metrics[n].Value, r.metrics[n].Unit)
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, r.metrics})
	w.Write(line)
	w.WriteByte('\n')
	w.Flush()
}

func run(name string, seed int64, seconds, traced int, dir string) (*result, error) {
	sp, err := findSpec(name)
	if err != nil {
		return nil, err
	}
	if seconds < 1 {
		return nil, fmt.Errorf("--seconds %d: must be at least 1", seconds)
	}
	if traced != 0 && traced != 1 {
		return nil, fmt.Errorf("--trace %d: must be 0 or 1", traced)
	}
	base := filepath.Join(dir, "tmp")
	res := &result{metrics: make(map[string]metric)}
	res.header = append(res.header,
		fmt.Sprintf("perfbench: workload=%s seed=%d seconds=%d trace=%d", sp.name, seed, seconds, traced),
		fmt.Sprintf("machine: nproc=%d cpu=%q go=%s", runtime.NumCPU(), cpuModel(), runtime.Version()))
	budget := time.Duration(seconds) * time.Second
	if traced == 0 {
		err = runEndToEnd(res, sp, seed, budget, base)
	} else {
		err = runLayers(res, sp, seed, budget, base, filepath.Join(dir, "spans-"+sp.name+".tsv"))
	}
	res.correct = err == nil
	status := "passed"
	if err != nil {
		status = "FAILED: " + err.Error()
	}
	res.header = append(res.header,
		fmt.Sprintf("operations: attempted=%d failed=%d", res.attempted, res.failed),
		"checks: "+status)
	if res.attempted == 0 {
		return nil, err
	}
	return res, err
}

// setupRuns is how many times an end-to-end run sets up; setup_s is
// the median.
const setupRuns = 5

// runEndToEnd measures the untraced stack: setup time, then the timed
// phase on the last of the set-ups.
func runEndToEnd(res *result, sp spec, seed int64, budget time.Duration, base string) error {
	var times []float64
	var s *stack
	for i := 0; i < setupRuns; i++ {
		runtime.GC() // each set-up starts from a heap without the last one's garbage
		t0 := time.Now()
		st, err := setup(sp, seed, base, stackOptions{})
		if err != nil {
			return err
		}
		times = append(times, time.Since(t0).Seconds())
		if i < setupRuns-1 {
			if err := st.close(); err != nil {
				return err
			}
			continue
		}
		s = st
	}
	ph, err := s.measure(budget, nil)
	if err == nil {
		err = s.check()
	}
	err = errors.Join(err, s.close())
	if ph == nil {
		return err
	}
	res.attempted, res.failed = ph.t.ops, ph.t.failed
	// Time figures are medians over the rounds of the timed phase.
	res.set("setup_s", median(times), "s")
	res.set("throughput_ops", ph.medianOf(func(r roundStat) float64 { return r.throughput }), "ops/s")
	res.set("tx_p50_us", ph.medianOf(func(r roundStat) float64 { return r.p50 }), "us")
	res.set("tx_p95_us", ph.medianOf(func(r roundStat) float64 { return r.p95 }), "us")
	res.set("cpu_us_per_op", ph.medianOf(func(r roundStat) float64 { return r.cpuPerOp }), "us")
	res.set("rss_peak_mb", float64(ph.maxRSS)/1024, "MB")
	res.header = append(res.header,
		fmt.Sprintf("setup_s runs: %.4f", times),
		fmt.Sprintf("timed phase: %d rounds of %d ops, overall %.1f ops/s",
			len(ph.rounds), sp.roundOps, float64(ph.t.ops)/ph.elapsed.Seconds()))
	return err
}

// runLayers runs the workload untraced, then traced, each for half the
// budget, and reports the per-layer metrics of the traced phase.
func runLayers(res *result, sp spec, seed int64, budget time.Duration, base, spanFile string) error {
	budget /= 2
	s, err := setup(sp, seed, base, stackOptions{})
	if err != nil {
		return err
	}
	plain, err := s.measure(budget, nil)
	if err == nil {
		err = s.check()
	}
	if plain != nil {
		res.attempted, res.failed = plain.t.ops, plain.t.failed
	}
	if err = errors.Join(err, s.close()); err != nil {
		return err
	}

	tr := newTracer()
	s, err = setup(sp, seed, base, stackOptions{tr: tr})
	if err != nil {
		return err
	}
	ph, err := s.measure(budget, tr)
	if err == nil {
		err = s.check()
	}
	err = errors.Join(err, s.close())
	if ph == nil {
		return err
	}
	// Written after close: no call is in flight.
	err = errors.Join(err, tr.writeSpans(spanFile))
	res.attempted += ph.t.ops
	res.failed += ph.t.failed
	layerMetrics(res, sp, plain, ph)
	res.header = append(res.header, fmt.Sprintf("spans: %d kept in %s, %d dropped", min(tr.next.Load(), maxSpans), spanFile, tr.dropped.Load()))
	return err
}

// phase holds what one timed phase measured.
type phase struct {
	t          tally
	rounds     []roundStat
	maxRSS     int64 // KiB, after the set-ups and the warm-up rounds
	elapsed    time.Duration
	allocBytes uint64
	gcCycles   uint32
	walBytes   int64

	// Traced phases only: per-layer deltas.
	cells        [numLayers][numKinds]cell
	httpRequests int64
	shortScans   int64
	commitsW     int64
	commitWNs    int64
	txnAborts    int64
	txnRecovered int64
}

// roundStat is what one round of the timed phase measured.
type roundStat struct {
	throughput float64 // ops/s
	cpuPerOp   float64 // µs of process CPU per op
	p50, p95   float64 // µs
}

// medianOf returns the median over the rounds of one figure.
func (ph *phase) medianOf(f func(roundStat) float64) float64 {
	xs := make([]float64, len(ph.rounds))
	for i, r := range ph.rounds {
		xs[i] = f(r)
	}
	return median(xs)
}

// warmupRounds is the untimed rounds before the timed phase.
const warmupRounds = 3

// measure runs the warm-up rounds, then whole rounds until the budget
// is spent. The peak resident set size is read after the warm-up: the
// store keeps every version for the 60 s retention window, so the
// footprint grows with the operations done, and a figure read after a
// fixed number of operations does not vary with the speed of the run.
func (s *stack) measure(budget time.Duration, tr *tracer) (*phase, error) {
	ctx := context.Background()
	runtime.GC() // start from a heap without the set-up's garbage
	for i := 0; i < warmupRounds; i++ {
		if _, err := s.round(ctx); err != nil {
			return nil, err
		}
	}
	ph := &phase{maxRSS: maxRSS()}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	wal0, err := s.store.WALSize()
	if err != nil {
		return nil, err
	}
	var cells0 [numLayers][numKinds]cell
	var http0, short0, cw0, cwns0 int64
	if tr != nil {
		cells0 = tr.snapshot()
		http0, short0 = tr.httpRequests.Load(), tr.shortScans.Load()
		cw0, cwns0 = tr.commitsWithWrites.Load(), tr.commitWriteNs.Load()
	}
	var aborts0, recovered0 int64
	if s.mgr != nil {
		_, aborts0, _, recovered0 = s.mgr.Stats()
	}
	start := time.Now()
	for time.Since(start) < budget {
		t0, cpu0 := time.Now(), cpuTime()
		t, err := s.round(ctx)
		if err != nil {
			return nil, err
		}
		wall, cpu := time.Since(t0), cpuTime()-cpu0
		ops := float64(t.ops)
		ph.rounds = append(ph.rounds, roundStat{
			throughput: ops / wall.Seconds(),
			cpuPerOp:   float64(cpu.Microseconds()) / ops,
			p50:        percentile(t.lat, 0.50) / 1e3,
			p95:        percentile(t.lat, 0.95) / 1e3,
		})
		ph.t.add(t)
	}
	ph.elapsed = time.Since(start)
	runtime.ReadMemStats(&ms1)
	ph.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	ph.gcCycles = ms1.NumGC - ms0.NumGC
	wal1, err := s.store.WALSize()
	if err != nil {
		return nil, err
	}
	ph.walBytes = wal1 - wal0
	if tr != nil {
		cells1 := tr.snapshot()
		for l := range cells1 {
			for k := range cells1[l] {
				a, b := cells0[l][k], cells1[l][k]
				ph.cells[l][k] = cell{calls: b.calls - a.calls, ns: b.ns - a.ns, items: b.items - a.items}
			}
		}
		ph.httpRequests = tr.httpRequests.Load() - http0
		ph.shortScans = tr.shortScans.Load() - short0
		ph.commitsW = tr.commitsWithWrites.Load() - cw0
		ph.commitWNs = tr.commitWriteNs.Load() - cwns0
	}
	if s.mgr != nil {
		_, aborts1, _, recovered1 := s.mgr.Stats()
		ph.txnAborts, ph.txnRecovered = aborts1-aborts0, recovered1-recovered0
	}
	return ph, nil
}

// check runs every output check of the workload.
func (s *stack) check() error {
	if s.scanErrs > 0 {
		return fmt.Errorf("check: %d scan results wrong, first: %s", s.scanErrs, s.firstScanErr)
	}
	if err := s.checkStore(s.acked); err != nil {
		return err
	}
	return s.checkProgram(context.Background())
}

// layerMetrics derives the per-layer metrics. A layer's self time is
// its calls' total time minus the time of the calls it made into the
// layer below, summed over the timed phase.
func layerMetrics(res *result, sp spec, plain, ph *phase) {
	ops := float64(ph.t.ops)
	sum := func(layer int, kinds ...int) (c cell) {
		if len(kinds) == 0 {
			kinds = []int{kindRead, kindWrite, kindScan, kindStart, kindCommit, kindAbort}
		}
		for _, k := range kinds {
			x := ph.cells[layer][k]
			c.calls += x.calls
			c.ns += x.ns
			c.items += x.items
		}
		return c
	}
	per := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	tx, bind := sum(layerTx), sum(layerBind)
	engPoint, engScan, engAll := sum(layerEngine, kindRead, kindWrite), sum(layerEngine, kindScan), sum(layerEngine)
	engRead, engWrite := sum(layerEngine, kindRead), sum(layerEngine, kindWrite)

	res.set("client.self_us_per_op", per(float64(tx.ns-bind.ns)/1e3, ops), "us")

	// The httpkv boundary: the txn.Store calls on cew-txn, the
	// binding's data calls on the rawhttp workloads.
	hLayer := layerBind
	var txnSelf, storeCalls float64
	if sp.txn {
		hLayer = layerStore
		store := sum(layerStore)
		txnSelf = per(float64(bind.ns-store.ns)/1e3, ops)
		storeCalls = per(float64(store.calls), ops)
	}
	res.set("txn.self_us_per_txn", txnSelf, "us")
	res.set("txn.store_calls_per_txn", storeCalls, "calls")
	res.set("txn.commit_us", per(float64(ph.commitWNs)/1e3, float64(ph.commitsW)), "us")
	res.set("txn.aborts", float64(ph.txnAborts), "count")
	res.set("txn.recovered", float64(ph.txnRecovered), "count")

	hPoint, hScan := sum(hLayer, kindRead, kindWrite), sum(hLayer, kindScan)
	res.set("httpkv.calls_per_op", per(float64(hPoint.calls), ops), "calls")
	res.set("httpkv.self_us_per_call", per(float64(hPoint.ns-engPoint.ns)/1e3, float64(hPoint.calls)), "us")
	res.set("httpkv.http_requests", float64(ph.httpRequests), "count")

	res.set("kvwire.engine_records_per_delivered", per(float64(engScan.items), float64(hScan.items)), "ratio")
	res.set("kvwire.short_scans", float64(ph.shortScans), "count")
	res.set("kvwire.scan_self_us_per_record", per(float64(hScan.ns-engScan.ns)/1e3, float64(hScan.items)), "us")

	res.set("kvstore.calls_per_op", per(float64(engAll.calls), ops), "calls")
	res.set("kvstore.read_us", per(float64(engRead.ns)/1e3, float64(engRead.calls)), "us")
	res.set("kvstore.write_us", per(float64(engWrite.ns)/1e3, float64(engWrite.calls)), "us")
	res.set("kvstore.scan_us_per_record", per(float64(engScan.ns)/1e3, float64(engScan.items)), "us")
	res.set("kvstore.wal_bytes_per_user_byte", per(float64(ph.walBytes), float64(ph.t.userBytes)), "ratio")

	// Allocation and GC come from the untraced phase: the tracing
	// itself allocates.
	res.set("go.alloc_bytes_per_op", per(float64(plain.allocBytes), float64(plain.t.ops)), "B")
	res.set("go.gc_cycles", float64(plain.gcCycles), "count")

	plainTput := float64(plain.t.ops) / plain.elapsed.Seconds()
	tracedTput := ops / ph.elapsed.Seconds()
	res.set("trace.overhead_pct", 100*(plainTput-tracedTput)/plainTput, "%")
	res.header = append(res.header, fmt.Sprintf("throughput: untraced %.1f ops/s, traced %.1f ops/s", plainTput, tracedTput))
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSS is the process's peak resident set size in KiB.
func maxRSS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss
}

// cpuModel reads the CPU model name, "unknown" when it cannot.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// percentile returns the nearest-rank q-quantile of ns; it sorts ns.
func percentile(ns []int64, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	slices.Sort(ns)
	i := int(math.Ceil(q*float64(len(ns)))) - 1
	return float64(ns[max(0, min(i, len(ns)-1))])
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
