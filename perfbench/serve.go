package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	paretomon "repro"
	"repro/internal/core"
	"repro/internal/object"
	"repro/internal/server"
	"repro/internal/stats"
)

const (
	serveBatch    = 32
	slotInterval  = 10 * time.Millisecond
	serveWorkers  = 2
	snapshotEvery = 8000
	// serveRoundSeconds of slots make one round; a run streams one round
	// on a fresh system, in its own seeded order, per serveRoundSeconds of
	// --seconds. The append-only state grows through a round, so a longer
	// round would measure a bigger system, not the same one for longer.
	serveRoundSeconds = 8
	serveRoundSlots   = serveRoundSeconds * int(time.Second/slotInterval)
	// sseDrain is how long the subscriber keeps reading after the last
	// slot, so the final writes' deliveries arrive.
	sseDrain = 200 * time.Millisecond
)

// tmpRoot holds the durable workload's data directories, inside the
// checkout the benchmark runs from.
var tmpRoot = filepath.Join(".bench_build", "tmp")

// durable is one serve-durable system: a durable monitor behind
// server.New on a loopback listener.
type durable struct {
	mon   *paretomon.Monitor
	store paretomon.Store // set when the benchmark owns it (traced)
	srv   *server.Server
	hs    *httptest.Server
	dir   string
}

func (s *durable) close() {
	s.srv.Close()
	s.hs.Close()
	s.mon.Close()
	if s.store != nil {
		s.store.Close()
	}
	os.RemoveAll(s.dir)
}

func serveOptions() []paretomon.Option {
	return []paretomon.Option{
		paretomon.WithAlgorithm(paretomon.AlgorithmFilterThenVerify),
		paretomon.WithBranchCut(branchCut),
		paretomon.WithWorkers(serveWorkers),
		paretomon.WithSnapshotEvery(snapshotEvery),
	}
}

// openDurable builds the system. Untraced it is paretomon.Open; traced,
// the same file store wrapped in the timing decorator via WithStore.
func openDurable(d *data, rec *recorder) (*durable, error) {
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmpRoot, "serve-")
	if err != nil {
		return nil, err
	}
	com, err := d.community()
	if err != nil {
		return nil, err
	}
	s := &durable{dir: dir}
	if rec == nil {
		s.mon, err = paretomon.Open(com, dir, serveOptions()...)
	} else {
		s.store, err = paretomon.NewFileStore(dir)
		if err == nil {
			s.mon, err = paretomon.NewMonitor(com, append(serveOptions(), paretomon.WithStore(timedStore{s.store, rec}))...)
		}
	}
	if err != nil {
		if s.store != nil {
			s.store.Close()
		}
		os.RemoveAll(dir)
		return nil, err
	}
	s.srv = server.New(s.mon)
	s.hs = httptest.NewServer(timedHandler(s.srv, rec, 0))
	return s, nil
}

// serveRound is one round's arrival order and slots.
func serveRound(ds *dataset, seed int64, r int) round {
	rs := roundSeed(seed, r)
	d := ds.order(rs)
	return round{d, openOps(d, rs, serveBatch, serveRoundSlots)}
}

func runServeDurable(a args) (*outcome, error) {
	ds := load()
	rounds := max(1, a.seconds/serveRoundSeconds)
	r0 := serveRound(ds, a.seed, 0)
	d, ops := r0.d, r0.ops
	o := newOutcome()
	o.sizes = map[string]any{"users": users, "dims": dims, "object_pool": poolSize, "round_slots": len(ops),
		"round_objects": objectsIn(ops), "batch": serveBatch, "slot_ms": ms(slotInterval), "workers": serveWorkers,
		"snapshot_every": snapshotEvery, "branch_cut": branchCut}

	// The reference: an in-process Baseline monitor fed the identical op
	// sequence. Round 0's delivery counts pick the subscribed user.
	ref, tally, err := baselineReference(d, ops)
	if err != nil {
		return nil, err
	}
	sub := busiest(tally, d.names)
	o.sizes["subscriber"] = sub

	if !a.trace {
		ref.Close()
		base := liveHeapMB()
		// Every round builds a fresh system and streams its own seeded
		// order; builds beyond the rounds only add set-up samples. Each
		// round's reference is built after its pass, off the clock.
		o.sizes["rounds"] = rounds
		var all pass
		var setups []float64
		var cmp, processed uint64
		for i := 0; i < max(rounds, setupRuns); i++ {
			t := time.Now()
			sys, err := openDurable(d, nil)
			if err != nil {
				return nil, err
			}
			setups = append(setups, time.Since(t).Seconds())
			if i >= rounds {
				sys.close()
				continue
			}
			rd := serveRound(ds, a.seed, i)
			p, _, err := servePass(sys, rd.d, rd.ops, sub, nil)
			if err != nil {
				sys.close()
				return nil, err
			}
			all.add(p)
			st := sys.mon.Stats()
			cmp += st.Comparisons
			processed += st.Processed
			if i == rounds-1 {
				o.metrics["live_heap_mb"] = liveHeapMB() - base
			}
			ref, _, err := baselineReference(rd.d, rd.ops)
			if err != nil {
				sys.close()
				return nil, err
			}
			if o.mismatch == "" {
				o.mismatch = checkAgainst(ref, sys.mon, rd.d, rd.ops)
			}
			ref.Close()
			sys.close()
		}
		o.metrics["setup_s"] = median(setups)
		o.metrics["comparisons_per_object"] = float64(cmp) / float64(processed)
		all.report(o)
		return o, nil
	}

	defer ref.Close()
	sys, err := openDurable(d, nil)
	if err != nil {
		return nil, err
	}
	plain, _, err := servePass(sys, d, ops, sub, nil)
	sys.close()
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	if sys, err = openDurable(d, rec); err != nil {
		return nil, err
	}
	m0 := readMem()
	p, receipts, err := servePass(sys, d, ops, sub, rec)
	mem := readMem().sub(m0)
	if err != nil {
		sys.close()
		return nil, err
	}
	o.attempted, o.failed = p.attempted, p.failed
	o.mismatch = checkAgainst(ref, sys.mon, d, ops)
	st := sys.mon.Stats()
	storage, serr := sys.mon.StorageStats()
	sys.close()
	if serr != nil {
		return nil, serr
	}
	n := float64(objectsIn(ops))

	appends := rec.of("storage.append")
	o.metrics["storage.append_us_p50"] = 1000 * median(spanMillis(appends))
	o.metrics["storage.append_calls"] = float64(len(appends))
	o.metrics["storage.bytes_per_object"] = float64(storage.AppendedBytes) / n
	o.metrics["storage.snapshot_ms"] = median(spanMillis(rec.of("storage.snapshot")))

	batches := rec.of("server.batch")
	handlerUs := 1000 * median(spanMillis(batches))
	o.metrics["server.batch_handler_us_p50"] = handlerUs
	o.metrics["server.frontier_handler_us_p50"] = 1000 * median(spanMillis(rec.of("server.frontier")))
	o.metrics["server.client_overhead_us_p50"] = 1000 * median(clientOverhead(rec, "client.batch", batches))
	o.metrics["subscribe.write_to_receipt_ms_p50"] = median(writeToReceipt(receipts, batches, rec.t0, 0))
	o.metrics["subscribe.dropped"] = float64(st.DroppedDeliveries)
	o.metrics["core.shard_skew"] = shardSkew(st)
	o.metrics["runtime.gc_pause_ms_total"] = float64(mem.pauseNs) / 1e6
	o.metrics["runtime.alloc_mb_per_kobject"] = float64(mem.totalAlloc) / 1e6 / (n / 1000)

	clusters, clusterSecs := timedClusters(d)
	o.metrics["cluster.agglomerate_s"] = clusterSecs
	o.metrics["cluster.clusters"] = float64(len(clusters))

	// The sharded core engine on the same objects, in the same batches.
	ctr := &stats.Counters{}
	eng := core.NewParallelFilterThenVerify(d.profiles, clusters, serveWorkers, ctr)
	e0 := readMem()
	t := time.Now()
	for _, op := range ops {
		if op.kind != opWrite {
			continue
		}
		batch := make([]object.Object, op.n)
		for j := range batch {
			batch[j] = d.internal(op.first + j)
		}
		eng.ProcessBatch(batch)
	}
	engNs := float64(time.Since(t).Nanoseconds()) / n
	engAllocs := readMem().sub(e0).mallocs
	tot := eng.Totals()
	eng.Close()
	o.metrics["core.ns_per_object"] = engNs
	o.metrics["core.allocs_per_object"] = float64(engAllocs) / n
	o.metrics["core.filter_cmp_per_object"] = float64(tot.FilterComparisons) / n
	o.metrics["core.verify_cmp_per_object"] = float64(tot.VerifyComparisons) / n

	// Timed Monitor calls: the same op sequence in process, on an
	// identically configured durable monitor.
	mrec := newRecorder()
	inproc, err := openDurable(d, mrec)
	if err != nil {
		return nil, err
	}
	allocs, err := replay(inproc.mon, d, ops, mrec, 0, nil, nil)
	inproc.close()
	if err != nil {
		return nil, err
	}
	adds := mrec.of("monitor.addbatch")
	stored := append(mrec.of("storage.append"), mrec.of("storage.snapshot")...)
	var storeInAdd time.Duration
	for _, s := range adds {
		storeInAdd += covered(s, stored)
	}
	addUs := us(sumDur(adds)) / n
	o.metrics["monitor.addbatch_us_per_object"] = addUs
	o.metrics["monitor.self_us_per_object"] = addUs - us(storeInAdd)/n - engNs/1000
	o.metrics["monitor.allocs_per_object"] = float64(allocs) / n
	o.metrics["monitor.lifecycle_us_p50"] = 1000 * median(spanMillis(mrec.of("monitor.lifecycle")))
	o.metrics["server.self_us_per_batch"] = handlerUs - 1000*median(spanMillis(adds))

	plain.loadgen(o)
	o.metrics["trace.overhead_pct"] = 100 * (median(p.write) - median(plain.write)) / median(plain.write)
	return o, writeSpans(rec, a, "serve-durable")
}

// baselineReference replays ops into an in-process Baseline monitor and
// counts each user's deliveries.
func baselineReference(d *data, ops []op) (*paretomon.Monitor, map[string]int, error) {
	com, err := d.community()
	if err != nil {
		return nil, nil, err
	}
	ref, err := paretomon.NewMonitor(com, paretomon.WithAlgorithm(paretomon.AlgorithmBaseline), paretomon.WithWorkers(1))
	if err != nil {
		return nil, nil, err
	}
	tally := map[string]int{}
	if _, err := replay(ref, d, ops, nil, 0, tally, nil); err != nil {
		ref.Close()
		return nil, nil, fmt.Errorf("reference replay: %w", err)
	}
	return ref, tally, nil
}

// servePass drives the open loop: one goroutine sends slot s at
// start + s×slotInterval on one keep-alive connection (late if the
// previous request is still out), and a second goroutine reads the
// subscriber's /deltas stream on a second connection.
func servePass(sys *durable, d *data, ops []op, sub string, rec *recorder) (*pass, []receipt, error) {
	var rt http.RoundTripper = newTransport(1)
	if rec != nil {
		rt = &timedTransport{base: rt, rec: rec}
	}
	client := &http.Client{Transport: rt}
	stream, err := subscribeSSE(sys.hs.URL + "/deltas/" + sub)
	if err != nil {
		return nil, nil, err
	}
	p := &pass{}
	writeDue := map[int]time.Time{}
	start := time.Now().Add(slotInterval)
	var lastDone time.Time
	for s, o := range ops {
		req, err := request(sys.hs.URL, d, o)
		if err != nil {
			stream.stop()
			return nil, nil, err
		}
		due := start.Add(time.Duration(s) * slotInterval)
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		p.maxLate = max(p.maxLate, time.Since(due))
		p.attempted++
		if err := send(client, req); err != nil {
			p.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.kind, err)
		}
		done := time.Now()
		lat := ms(done.Sub(due))
		switch {
		case o.kind == opWrite:
			p.write = append(p.write, lat)
			writeDue[o.first] = due
			p.objects += o.n
			lastDone = done
		case o.kind == opRead:
			p.read = append(p.read, lat)
		default:
			p.life = append(p.life, lat)
			p.lifeKind = append(p.lifeKind, o.kind)
		}
	}
	p.elapsed = lastDone.Sub(start)
	time.Sleep(sseDrain)
	receipts := stream.stop()
	p.delivery = deliveryLatencies(receipts, func(k int) (time.Time, bool) {
		t, ok := writeDue[k-k%serveBatch]
		return t, ok
	})
	client.CloseIdleConnections()
	return p, receipts, nil
}

type objectJSON struct {
	Name   string   `json:"name"`
	Values []string `json:"values"`
}

type preferenceJSON struct {
	User      string `json:"user"`
	Attribute string `json:"attribute"`
	Better    string `json:"better"`
	Worse     string `json:"worse"`
}

// request builds the HTTP request for one op.
func request(base string, d *data, o op) (*http.Request, error) {
	var method, path string
	var body any
	switch o.kind {
	case opWrite:
		objs := make([]objectJSON, o.n)
		for j, ob := range batchOf(d, o) {
			objs[j] = objectJSON{ob.Name, ob.Values}
		}
		method, path, body = http.MethodPost, "/objects/batch", map[string]any{"objects": objs}
	case opRead:
		method, path = http.MethodGet, "/frontier/"+o.user
	case opPrefAdd, opPrefRetract:
		method, path = http.MethodPost, "/preferences"
		if o.kind == opPrefRetract {
			method = http.MethodDelete
		}
		body = preferenceJSON{o.user, o.attr, o.better, o.worse}
	case opRemove:
		method, path = http.MethodDelete, "/objects/"+o.object
	}
	var r io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		r = bytes.NewReader(b)
	}
	return http.NewRequest(method, base+path, r)
}

// send performs a request and drains the reply; any non-200 status is an
// error.
func send(c *http.Client, req *http.Request) error {
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: %d %s", req.Method, req.URL.Path, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return nil
}

// sseStream reads one /deltas stream in its own goroutine on its own
// connection.
type sseStream struct {
	cancel context.CancelFunc
	done   chan struct{}
	got    []receipt
}

// subscribeSSE opens the stream and returns once the server has
// registered the subscription (the response headers arrived).
func subscribeSSE(url string) (*sseStream, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		cancel()
		return nil, err
	}
	client := &http.Client{Transport: newTransport(1)}
	resp, err := client.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("GET %s: %d", url, resp.StatusCode)
	}
	s := &sseStream{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64*1024), 1<<20)
		for sc.Scan() {
			line := sc.Bytes()
			if !bytes.HasPrefix(line, []byte("data: ")) {
				continue
			}
			at := time.Now()
			var dl struct {
				Object  string   `json:"object"`
				Entered []string `json:"entered"`
				Left    []string `json:"left"`
			}
			if json.Unmarshal(line[len("data: "):], &dl) == nil && isDelivery(dl.Object, dl.Entered, dl.Left) {
				s.got = append(s.got, receipt{dl.Object, at})
			}
		}
	}()
	return s, nil
}

// stop closes the stream, waits for its reader and returns the receipts.
func (s *sseStream) stop() []receipt {
	s.cancel()
	<-s.done
	return s.got
}

// clientOverhead pairs each client round trip with the handler span
// inside it on the same track and returns round trip minus handler, in ms.
func clientOverhead(rec *recorder, clientLayer string, handlers []span) []float64 {
	var out []float64
	for _, c := range rec.of(clientLayer) {
		if h := covered(c, handlers); h > 0 {
			out = append(out, ms(c.dur()-h))
		}
	}
	return out
}

// shardSkew is the busiest shard's comparisons over the mean (1 when the
// monitor runs one shard).
func shardSkew(st paretomon.Stats) float64 {
	if len(st.Shards) == 0 {
		return 1
	}
	var sum, top uint64
	for _, s := range st.Shards {
		sum += s.Comparisons
		top = max(top, s.Comparisons)
	}
	if sum == 0 {
		return 1
	}
	return float64(top) * float64(len(st.Shards)) / float64(sum)
}

// checkAgainst compares a monitor or fleet with the reference monitor
// fed the same ops: every user's frontier and every surviving object's
// targets.
func checkAgainst(ref, got paretomon.Driver, d *data, ops []op) string {
	for _, u := range d.names {
		want, err1 := ref.Frontier(u)
		have, err2 := got.Frontier(u)
		if err1 != nil || err2 != nil {
			return fmt.Sprintf("frontier of %s: %v / %v", u, err1, err2)
		}
		if msg := diffNames("frontier of "+u, want, have); msg != "" {
			return msg
		}
	}
	return checkTargets(ref, got, ops, 1)
}

// targetReader is the one Driver method the target check reads.
type targetReader interface {
	TargetsOf(object string) ([]string, error)
}

// checkTargets compares the targets of every step-th surviving object.
func checkTargets(ref, got targetReader, ops []op, step int) string {
	removed := map[string]bool{}
	for _, o := range ops {
		if o.kind == opRemove {
			removed[o.object] = true
		}
	}
	for _, o := range ops {
		if o.kind != opWrite {
			continue
		}
		for k := o.first; k < o.first+o.n; k += step {
			name := objName(k)
			if removed[name] {
				continue
			}
			want, err1 := ref.TargetsOf(name)
			have, err2 := got.TargetsOf(name)
			if err1 != nil || err2 != nil {
				return fmt.Sprintf("targets of %s: %v / %v", name, err1, err2)
			}
			if msg := diffNames("targets of "+name, want, have); msg != "" {
				return msg
			}
		}
	}
	return ""
}
