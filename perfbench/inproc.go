package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"

	paretomon "repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/window"
)

// The experiments' calibrated branch cut for the movie generator at
// d = 4 (mapH("movie", false, 0.55, 4)); the package default of 0.55
// sits on another scale and merges this generator's users into one
// cluster.
const branchCut = 3.30

const (
	closedBatch = 256
	windowSize  = 1600
	// windowFixedIter iterations (24 576 objects) always run, so
	// comparisons per object are taken at the same stream position on
	// every run of a seed.
	windowFixedIter = 96
	windowMaxIter   = 1000
	// windowReads frontier reads per iteration sweep the community every
	// ten iterations, so the read median covers every user alike.
	windowReads = 20
	// subscriber is the user whose deliveries window-inproc times; the
	// served workloads subscribe to their busiest user instead.
	subscriber = "u0"
)

// setupRuns is how many times every workload sets its system up; setup_s
// is their median.
const setupRuns = 3

// repeatSetup builds the system n times, keeping the last instance and
// dropping the others, and returns the median build time in seconds.
func repeatSetup[T any](n int, build func() (T, error), drop func(T)) (T, float64, error) {
	var last T
	var secs []float64
	for i := 0; i < n; i++ {
		t := time.Now()
		v, err := build()
		if err != nil {
			return last, 0, err
		}
		secs = append(secs, time.Since(t).Seconds())
		if i < n-1 {
			drop(v)
		}
		last = v
	}
	return last, median(secs), nil
}

func runWindowInproc(a args) (*outcome, error) {
	d := load().order(a.seed)
	ops := closedOps(d, a.seed, closedBatch, windowMaxIter, windowReads, 1)
	opts := []paretomon.Option{
		paretomon.WithAlgorithm(paretomon.AlgorithmFilterThenVerify),
		paretomon.WithBranchCut(branchCut),
		paretomon.WithWindow(windowSize),
		paretomon.WithWorkers(1),
	}
	build := func() (*paretomon.Monitor, error) {
		com, err := d.community()
		if err != nil {
			return nil, err
		}
		return paretomon.NewMonitor(com, opts...)
	}
	drop := func(m *paretomon.Monitor) { m.Close() }
	o := newOutcome()
	o.sizes = map[string]any{"users": users, "dims": dims, "object_pool": poolSize, "window": windowSize,
		"batch": closedBatch, "workers": 1, "branch_cut": branchCut, "fixed_objects": windowFixedIter * closedBatch}
	base := liveHeapMB()

	if !a.trace {
		mon, setup, err := repeatSetup(setupRuns, build, drop)
		if err != nil {
			return nil, err
		}
		defer mon.Close()
		p, err := windowPass(mon, d, ops, a.seconds, true, base, nil)
		if err != nil {
			return nil, err
		}
		o.metrics["setup_s"] = setup
		p.report(o)
		o.metrics["comparisons_per_object"] = float64(p.fixed.Comparisons) / float64(p.fixed.Processed)
		// The registry keeps every object written, windowed or not, so
		// the heap is read at the fixed stream position, not at the end.
		o.metrics["live_heap_mb"] = p.fixedHeapMB
		o.sizes["objects"] = p.objects
		o.mismatch = checkWindow(mon, d, ops[:p.ops], p.objects)
		return o, nil
	}

	// Untraced pass first: the end-to-end figure the traced pass's
	// overhead is measured against, and the load generator's tails.
	mon, err := build()
	if err != nil {
		return nil, err
	}
	plain, err := windowPass(mon, d, ops, a.seconds, false, 0, nil)
	mon.Close()
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	if mon, err = build(); err != nil {
		return nil, err
	}
	defer mon.Close()
	m0 := readMem()
	p, err := windowPass(mon, d, ops, a.seconds, false, 0, rec)
	if err != nil {
		return nil, err
	}
	mem := readMem().sub(m0)
	o.attempted, o.failed = p.attempted, p.failed
	o.sizes["objects"] = p.objects
	o.mismatch = checkWindow(mon, d, ops[:p.ops], p.objects)

	clusters, clusterSecs := timedClusters(d)
	o.metrics["cluster.agglomerate_s"] = clusterSecs
	o.metrics["cluster.clusters"] = float64(len(clusters))

	// The same object stream straight through the window engine.
	ctr := &stats.Counters{}
	eng := window.NewFilterThenVerifySW(d.profiles, clusters, windowSize, ctr)
	e0 := readMem()
	t := time.Now()
	for k := 0; k < p.objects; k++ {
		eng.Process(d.internal(k))
	}
	engNs := float64(time.Since(t).Nanoseconds()) / float64(p.objects)
	n := float64(p.objects)
	o.metrics["window.ns_per_object"] = engNs
	o.metrics["window.allocs_per_object"] = float64(readMem().sub(e0).mallocs) / n
	o.metrics["window.filter_cmp_per_object"] = float64(ctr.FilterComparisons) / n
	o.metrics["window.verify_cmp_per_object"] = float64(ctr.VerifyComparisons) / n
	if ctr.VerifyComparisons > 0 {
		o.metrics["window.delivered_per_verify"] = float64(ctr.Delivered) / float64(ctr.VerifyComparisons)
	}

	addUs := us(sumDur(rec.of("monitor.addbatch"))) / n
	o.metrics["monitor.addbatch_us_per_object"] = addUs
	o.metrics["monitor.self_us_per_object"] = addUs - engNs/1000
	o.metrics["monitor.allocs_per_object"] = float64(p.writeAllocs) / n
	o.metrics["monitor.lifecycle_us_p50"] = 1000 * median(spanMillis(rec.of("monitor.lifecycle")))
	o.metrics["subscribe.write_to_receipt_ms_p50"] = median(p.delivery)
	o.metrics["subscribe.dropped"] = float64(mon.Stats().DroppedDeliveries)
	o.metrics["runtime.gc_pause_ms_total"] = float64(mem.pauseNs) / 1e6
	o.metrics["runtime.alloc_mb_per_kobject"] = float64(mem.totalAlloc) / 1e6 / (n / 1000)
	plain.loadgen(o)
	o.metrics["trace.overhead_pct"] = 100 * (plain.rate() - p.rate()) / plain.rate()
	return o, writeSpans(rec, a, "window-inproc")
}

// windowPass runs the closed loop against an in-process monitor while one
// goroutine drains the subscriber's delta channel. With heap set, the
// live heap less base is read after windowFixedIter iterations.
func windowPass(mon *paretomon.Monitor, d *data, ops []op, seconds int, heap bool, base float64, rec *recorder) (*closedResult, error) {
	ch, cancel, err := mon.SubscribeDeltas(subscriber)
	if err != nil {
		return nil, err
	}
	var got []receipt
	done := make(chan struct{})
	go func() {
		defer close(done)
		for dl := range ch {
			if isDelivery(dl.Object, dl.Entered, dl.Left) {
				got = append(got, receipt{dl.Object, time.Now()})
			}
		}
	}()
	r := closedLoop(mon, d, ops, time.Now().Add(time.Duration(seconds)*time.Second), windowFixedIter, heap, base, rec, "monitor.addbatch", "monitor.lifecycle")
	cancel()
	<-done
	r.delivery = deliveryLatencies(got, r.due)
	return &r, nil
}

// timedClusters times the clustering the filter-then-verify monitors run
// at construction, called directly on the same profiles.
func timedClusters(d *data) ([]core.Cluster, float64) {
	t := time.Now()
	res := cluster.Agglomerative(d.profiles, cluster.WeightedJaccard, branchCut)
	secs := time.Since(t).Seconds()
	out := make([]core.Cluster, len(res.Clusters))
	for i, c := range res.Clusters {
		out[i] = core.Cluster{Members: c.Members, Common: c.Common}
	}
	return out, secs
}

// checkWindow compares every user's frontier with the definition: the
// alive objects among the last W written, none dominated under the
// user's relation (pref comparisons only). Asserted tuples are all
// retracted by the end of a pass, so each relation is the generated one.
func checkWindow(mon *paretomon.Monitor, d *data, done []op, objects int) string {
	removed := map[string]bool{}
	for _, o := range done {
		if o.kind == opRemove {
			removed[o.object] = true
		}
	}
	var alive []int
	for k := max(0, objects-windowSize); k < objects; k++ {
		if !removed[objName(k)] {
			alive = append(alive, k)
		}
	}
	for u, p := range d.profiles {
		var want []string
		for _, k := range alive {
			dominated := false
			for _, j := range alive {
				if j != k && p.Dominates(d.internal(j), d.internal(k)) {
					dominated = true
					break
				}
			}
			if !dominated {
				want = append(want, objName(k))
			}
		}
		got, err := mon.Frontier(d.names[u])
		if err != nil {
			return fmt.Sprintf("frontier of %s: %v", d.names[u], err)
		}
		if msg := diffNames(d.names[u], want, got); msg != "" {
			return msg
		}
	}
	return ""
}

// diffNames compares two name sets regardless of order.
func diffNames(what string, want, got []string) string {
	w := append([]string(nil), want...)
	g := append([]string(nil), got...)
	sort.Strings(w)
	sort.Strings(g)
	if len(w) != len(g) {
		return fmt.Sprintf("%s: %d names, reference has %d", what, len(g), len(w))
	}
	for i := range w {
		if w[i] != g[i] {
			return fmt.Sprintf("%s: has %s where reference has %s", what, g[i], w[i])
		}
	}
	return ""
}

func sumDur(ss []span) time.Duration {
	var d time.Duration
	for _, s := range ss {
		d += s.dur()
	}
	return d
}

// writeSpans writes a traced pass's spans and says where.
func writeSpans(rec *recorder, a args, workload string) error {
	path, err := rec.write(filepath.Join(".bench_build", "traces"), fmt.Sprintf("%s-seed%d", workload, a.seed))
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("{\"spans\": %q}\n", path)
	return nil
}
