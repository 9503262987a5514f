package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"time"

	paretomon "repro"
	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/server"
	"repro/internal/stats"
)

const (
	partitions = 2
	// routedIter iterations of 256 objects (2560) make one round; every
	// round builds a fresh fleet and streams its own seeded arrival order,
	// so a run averages over many orders. Baseline's work per object
	// varies by about 10% from one order to the next at any round size,
	// so short rounds, many to a run, hold the figures steady.
	routedIter = 10
	// routedFixedRounds rounds always run; comparisons per object are
	// taken over exactly these.
	routedFixedRounds = 32
	// routedLifeEvery spaces preference pairs out (one per two writes): on
	// an append-only monitor a retraction re-derives the user's frontier
	// from every alive object, and more would crowd out the fan-out this
	// workload is for.
	routedLifeEvery = 2
	// routedReads frontier reads per write keep the read median on many
	// samples at a small share of the loop's time.
	routedReads = 2
	// routedDrain is how long a round's subscriber keeps reading after
	// the last write; the closed loop's deliveries are already published
	// when it ends.
	routedDrain = 50 * time.Millisecond
	// targetStep samples the objects whose targets are also read back
	// through the Router; every object's targets are compared on the
	// partitions' own monitors.
	targetStep = 64
)

// fleet is one routed system: a Router over partition servers, each an
// in-memory Baseline monitor over its ring-assigned slice of the users.
type fleet struct {
	mons []*paretomon.Monitor
	srvs []*server.Server
	hss  []*httptest.Server
	rt   *partition.Router
}

func (f *fleet) close() {
	if f.rt != nil {
		f.rt.Close()
	}
	for i := range f.hss {
		f.srvs[i].Close()
		f.hss[i].Close()
		f.mons[i].Close()
	}
}

func routedOptions() []paretomon.Option {
	return []paretomon.Option{paretomon.WithAlgorithm(paretomon.AlgorithmBaseline), paretomon.WithWorkers(1)}
}

// subsets carves the community into the plan's partitions.
func subsets(com *paretomon.Community, plan *partition.Plan) []*paretomon.Community {
	out := make([]*paretomon.Community, plan.Partitions())
	for i := range out {
		idx := i
		out[i] = com.Subset(func(name string) bool { return plan.Owner(name) == idx })
	}
	return out
}

// buildFleet is the routed set-up: the community, one monitor and
// server per partition, and the Router over them.
func buildFleet(ds *dataset, rec *recorder) (*fleet, error) {
	plan, err := partition.NewPlan(partitions, 0)
	if err != nil {
		return nil, err
	}
	com, err := ds.community()
	if err != nil {
		return nil, err
	}
	f := &fleet{}
	tt := &timedTransport{base: newTransport(1), rec: rec, tracks: map[string]int{}}
	var urls []string
	for i, sub := range subsets(com, plan) {
		mon, err := paretomon.NewMonitor(sub, routedOptions()...)
		if err != nil {
			f.close()
			return nil, err
		}
		srv := server.New(mon)
		hs := httptest.NewServer(timedHandler(srv, rec, i))
		f.mons, f.srvs, f.hss = append(f.mons, mon), append(f.srvs, srv), append(f.hss, hs)
		u, err := url.Parse(hs.URL)
		if err != nil {
			f.close()
			return nil, err
		}
		tt.tracks[u.Host] = i
		urls = append(urls, hs.URL)
	}
	var rt http.RoundTripper = tt.base
	if rec != nil {
		rt = tt
	}
	f.rt, err = partition.New(partition.Config{URLs: urls, Client: &http.Client{Transport: rt}})
	if err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// round is one round's arrival order and ops.
type round struct {
	d   *data
	ops []op
}

func routedRound(ds *dataset, seed int64, r int) round {
	rs := roundSeed(seed, r)
	d := ds.order(rs)
	return round{d, closedOps(d, rs, closedBatch, routedIter, routedReads, routedLifeEvery)}
}

// routedRun is what a series of rounds measured.
type routedRun struct {
	setup []float64
	pass  pass    // pooled over rounds
	cmp   float64 // comparisons per object over the fixed rounds
	// The subscriber's receipts (traced runs) and the partition that
	// owns it, the same in every round.
	receipts []receipt
	owner    int
	heapMB   float64
	parts    []paretomon.Stats
	last     round
	mismatch string
}

// routedRounds runs rounds until routedFixedRounds are done and the
// measured time reaches seconds, then checks the last fleet against a
// single Baseline monitor fed the same round, off the clock.
func routedRounds(ds *dataset, seed int64, sub string, seconds int, rec *recorder, base float64) (*routedRun, error) {
	r := &routedRun{}
	var cmp, processed uint64
	for i := 0; ; i++ {
		rd := routedRound(ds, seed, i)
		t := time.Now()
		f, err := buildFleet(ds, rec)
		if err != nil {
			return nil, err
		}
		r.setup = append(r.setup, time.Since(t).Seconds())
		owner := f.rt.Owner(sub)
		stream, err := subscribeSSE(f.rt.PartitionURL(owner) + "/deltas/" + sub)
		if err != nil {
			f.close()
			return nil, err
		}
		res := closedLoop(f.rt, rd.d, rd.ops, time.Time{}, routedIter, false, 0, rec, "partition.router_batch", "partition.router_lifecycle")
		time.Sleep(routedDrain)
		rs := stream.stop()
		res.delivery = deliveryLatencies(rs, res.due)
		r.pass.add(&res.pass)
		r.owner = owner
		if rec != nil {
			r.receipts = append(r.receipts, rs...)
		}
		if i < routedFixedRounds {
			cmp += res.fixed.Comparisons
			processed += res.fixed.Processed
		}
		if i+1 < routedFixedRounds || r.pass.elapsed < time.Duration(seconds)*time.Second {
			f.close()
			continue
		}
		r.heapMB = liveHeapMB() - base
		for _, ps := range f.rt.FleetStats().Partitions {
			r.parts = append(r.parts, ps.Stats)
		}
		r.last = rd
		ref, _, err := baselineReference(rd.d, rd.ops)
		if err != nil {
			f.close()
			return nil, err
		}
		r.mismatch = checkFleet(ref, f, rd.d, rd.ops)
		ref.Close()
		f.close()
		break
	}
	if processed > 0 {
		r.cmp = float64(cmp) / float64(processed)
	}
	return r, nil
}

// checkFleet compares the fleet with the single reference monitor: every
// frontier through the Router, the summed Stats counters, every
// surviving object's targets on the partitions' own monitors (unioned),
// and every targetStep-th object's targets through the Router.
func checkFleet(ref *paretomon.Monitor, f *fleet, d *data, ops []op) string {
	for _, u := range d.names {
		want, err1 := ref.Frontier(u)
		have, err2 := f.rt.Frontier(u)
		if err1 != nil || err2 != nil {
			return fmt.Sprintf("frontier of %s: %v / %v", u, err1, err2)
		}
		if msg := diffNames("frontier of "+u, want, have); msg != "" {
			return msg
		}
	}
	sr, sg := ref.Stats(), f.rt.Stats()
	if sr.Comparisons != sg.Comparisons || sr.FilterComparisons != sg.FilterComparisons ||
		sr.VerifyComparisons != sg.VerifyComparisons || sr.Delivered != sg.Delivered || sr.Processed != sg.Processed {
		return fmt.Sprintf("stats: fleet %+v, reference %+v", sg, sr)
	}
	if msg := checkTargets(ref, unionTargets(f.mons), ops, 1); msg != "" {
		return msg
	}
	return checkTargets(ref, f.rt, ops, targetStep)
}

// unionTargets reads an object's targets straight off every partition's
// monitor.
type unionTargets []*paretomon.Monitor

func (u unionTargets) TargetsOf(name string) ([]string, error) {
	var out []string
	for _, m := range u {
		t, err := m.TargetsOf(name)
		if err != nil {
			return nil, err
		}
		out = append(out, t...)
	}
	return out, nil
}

func runRouted(a args) (*outcome, error) {
	ds := load()
	o := newOutcome()
	o.sizes = map[string]any{"users": users, "dims": dims, "object_pool": poolSize, "partitions": partitions,
		"batch": closedBatch, "round_objects": routedIter * closedBatch, "workers": 1,
		"fixed_rounds": routedFixedRounds, "lifecycle_every": routedLifeEvery}
	// Round 0's reference delivery counts pick the subscribed user.
	r0 := routedRound(ds, a.seed, 0)
	ref, tally, err := baselineReference(r0.d, r0.ops)
	if err != nil {
		return nil, err
	}
	ref.Close()
	sub := busiest(tally, ds.names)
	o.sizes["subscriber"] = sub
	base := liveHeapMB()

	if !a.trace {
		r, err := routedRounds(ds, a.seed, sub, a.seconds, nil, base)
		if err != nil {
			return nil, err
		}
		o.sizes["rounds"] = len(r.setup)
		o.metrics["setup_s"] = median(r.setup)
		r.pass.report(o)
		o.metrics["comparisons_per_object"] = r.cmp
		o.metrics["live_heap_mb"] = r.heapMB
		o.mismatch = r.mismatch
		return o, nil
	}

	plain, err := routedRounds(ds, a.seed, sub, a.seconds, nil, base)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	m0 := readMem()
	r, err := routedRounds(ds, a.seed, sub, a.seconds, rec, base)
	if err != nil {
		return nil, err
	}
	mem := readMem().sub(m0)
	o.sizes["rounds"] = len(r.setup)
	o.attempted, o.failed, o.mismatch = r.pass.attempted, r.pass.failed, r.mismatch
	n := float64(r.pass.objects)

	calls := rec.of("partition.router_batch")
	handlers := rec.of("server.batch")
	posts := rec.of("client.batch")
	var routerMs, maxMs, fanMs []float64
	retries := 0
	for _, c := range calls {
		var slowest time.Duration
		for i := 0; i < partitions; i++ {
			slowest = max(slowest, covered(span{Track: i, Start: c.Start, End: c.End}, handlers))
			sent := 0
			for _, p := range posts {
				if p.Track == i && p.Start >= c.Start && p.End <= c.End {
					sent++
				}
			}
			retries += max(0, sent-1)
		}
		routerMs = append(routerMs, ms(c.dur()))
		maxMs = append(maxMs, ms(slowest))
		fanMs = append(fanMs, ms(c.dur()-slowest))
	}
	o.metrics["partition.router_batch_ms_p50"] = median(routerMs)
	o.metrics["partition.max_partition_handler_ms_p50"] = median(maxMs)
	o.metrics["partition.fanout_overhead_ms_p50"] = median(fanMs)
	o.metrics["partition.retries"] = float64(retries)

	handlerUs := 1000 * median(spanMillis(handlers))
	o.metrics["server.batch_handler_us_p50"] = handlerUs
	o.metrics["server.frontier_handler_us_p50"] = 1000 * median(spanMillis(rec.of("server.frontier")))
	o.metrics["server.client_overhead_us_p50"] = 1000 * median(clientOverhead(rec, "client.batch", handlers))
	o.metrics["subscribe.write_to_receipt_ms_p50"] = median(writeToReceipt(r.receipts, handlers, rec.t0, r.owner))
	var dropped uint64
	for _, ps := range r.parts {
		dropped += ps.DroppedDeliveries
	}
	o.metrics["subscribe.dropped"] = float64(dropped)
	o.metrics["core.shard_skew"] = partitionSkew(r.parts)
	o.metrics["runtime.gc_pause_ms_total"] = float64(mem.pauseNs) / 1e6
	o.metrics["runtime.alloc_mb_per_kobject"] = float64(mem.totalAlloc) / 1e6 / (n / 1000)

	// The last round's objects straight through the Baseline engine over
	// the whole community: Baseline's work splits exactly by user, so this
	// is the fleet's summed engine work.
	last := r.last
	rounds := objectsIn(last.ops)
	rn := float64(rounds)
	ctr := &stats.Counters{}
	eng := core.NewBaseline(ds.profiles, ctr)
	e0 := readMem()
	t := time.Now()
	for k := 0; k < rounds; k++ {
		eng.Process(last.d.internal(k))
	}
	engNs := float64(time.Since(t).Nanoseconds()) / rn
	o.metrics["core.ns_per_object"] = engNs
	o.metrics["core.allocs_per_object"] = float64(readMem().sub(e0).mallocs) / rn
	o.metrics["core.filter_cmp_per_object"] = float64(ctr.FilterComparisons) / rn
	o.metrics["core.verify_cmp_per_object"] = float64(ctr.VerifyComparisons) / rn

	// Timed Monitor calls: each partition's monitor replays the ops it
	// receives (every write and removal; reads and preference ops only for
	// users it holds).
	plan, err := partition.NewPlan(partitions, 0)
	if err != nil {
		return nil, err
	}
	com, err := ds.community()
	if err != nil {
		return nil, err
	}
	mrec := newRecorder()
	var allocs uint64
	for i, sub := range subsets(com, plan) {
		mon, err := paretomon.NewMonitor(sub, routedOptions()...)
		if err != nil {
			return nil, err
		}
		n, err := replay(mon, last.d, last.ops, mrec, i, nil, func(u string) bool { return !mon.HasUser(u) })
		mon.Close()
		if err != nil {
			return nil, err
		}
		allocs += n
	}
	adds := mrec.of("monitor.addbatch")
	addUs := us(sumDur(adds)) / rn
	o.metrics["monitor.addbatch_us_per_object"] = addUs
	o.metrics["monitor.self_us_per_object"] = addUs - engNs/1000
	o.metrics["monitor.allocs_per_object"] = float64(allocs) / rn
	o.metrics["monitor.lifecycle_us_p50"] = 1000 * median(spanMillis(mrec.of("monitor.lifecycle")))
	o.metrics["server.self_us_per_batch"] = handlerUs - 1000*median(spanMillis(adds))

	plain.pass.loadgen(o)
	o.metrics["trace.overhead_pct"] = 100 * (plain.pass.rate() - r.pass.rate()) / plain.pass.rate()
	return o, writeSpans(rec, a, "routed")
}

// partitionSkew is the busiest partition's comparisons over the mean.
func partitionSkew(parts []paretomon.Stats) float64 {
	shards := make([]paretomon.ShardStats, len(parts))
	for i, p := range parts {
		shards[i] = paretomon.ShardStats{Comparisons: p.Comparisons}
	}
	return shardSkew(paretomon.Stats{Shards: shards})
}
