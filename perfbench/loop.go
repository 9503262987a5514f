package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	paretomon "repro"
)

// batchOf materializes a write op's objects.
func batchOf(d *data, o op) []paretomon.Object {
	objs := make([]paretomon.Object, o.n)
	for j := range objs {
		objs[j] = d.object(o.first + j)
	}
	return objs
}

// apply runs one op against a Driver (a Monitor or a Router).
func apply(drv paretomon.Driver, o op, objs []paretomon.Object) error {
	var err error
	switch o.kind {
	case opWrite:
		_, err = drv.AddBatch(objs)
	case opRead:
		_, err = drv.Frontier(o.user)
	case opPrefAdd:
		err = drv.AddPreference(o.user, o.attr, o.better, o.worse)
	case opPrefRetract:
		err = drv.RetractPreference(o.user, o.attr, o.better, o.worse)
	case opRemove:
		err = drv.RemoveObject(o.object)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", o.kind, err)
	}
	return nil
}

// pass is what one measured pass saw; latencies are in ms per op class.
type pass struct {
	objects           int
	elapsed           time.Duration
	write, read, life []float64
	lifeKind          []opKind
	delivery          []float64
	attempted, failed int
	// maxLate is how far behind its schedule an open loop sent.
	maxLate time.Duration
}

func (p *pass) rate() float64 { return float64(p.objects) / p.elapsed.Seconds() }

// add pools another pass into p.
func (p *pass) add(q *pass) {
	p.objects += q.objects
	p.elapsed += q.elapsed
	p.write = append(p.write, q.write...)
	p.read = append(p.read, q.read...)
	p.life = append(p.life, q.life...)
	p.lifeKind = append(p.lifeKind, q.lifeKind...)
	p.delivery = append(p.delivery, q.delivery...)
	p.attempted += q.attempted
	p.failed += q.failed
	p.maxLate = max(p.maxLate, q.maxLate)
}

// report fills the end-to-end metrics a pass measures, and records how
// many samples each median rests on and each lifecycle kind's median.
func (p *pass) report(o *outcome) {
	o.metrics["objects_per_s"] = p.rate()
	o.metrics["write_latency_p50_ms"] = median(p.write)
	o.metrics["delivery_latency_p50_ms"] = median(p.delivery)
	o.metrics["read_latency_p50_ms"] = median(p.read)
	o.metrics["lifecycle_latency_p50_ms"] = median(p.life)
	o.sizes["samples"] = map[string]int{"write": len(p.write), "read": len(p.read), "lifecycle": len(p.life), "delivery": len(p.delivery)}
	groups := map[string][]float64{}
	for i, k := range p.lifeKind {
		groups[k.String()] = append(groups[k.String()], p.life[i])
	}
	kinds := map[string]float64{}
	for k, xs := range groups {
		kinds[k] = median(xs)
	}
	o.sizes["lifecycle_p50_ms"] = kinds
	o.attempted, o.failed = p.attempted, p.failed
}

// loadgen fills the load generator's tail metrics. A closed loop has no
// schedule to fall behind, so its max_late_ms is 0.
func (p *pass) loadgen(o *outcome) {
	o.metrics["loadgen.write_latency_p99_ms"] = quantile(p.write, 0.99)
	o.metrics["loadgen.delivery_latency_p99_ms"] = quantile(p.delivery, 0.99)
	o.metrics["loadgen.read_latency_p99_ms"] = quantile(p.read, 0.99)
	o.metrics["loadgen.samples"] = float64(len(p.write))
	o.metrics["loadgen.max_late_ms"] = ms(p.maxLate)
}

// closedResult is what one closed-loop pass measured.
type closedResult struct {
	pass
	iterations int
	ops        int // ops issued, a prefix of the sequence
	// batchStart[i] is when iteration i's write was issued.
	batchStart []time.Time
	// fixed is the Driver's Stats after exactly fixedIter iterations, so
	// comparisons per object repeat exactly for a seed however far the
	// timed pass got.
	fixed paretomon.Stats
	// fixedHeapMB is the live heap after exactly fixedIter iterations,
	// when the loop was asked to take it, so it does not grow with how
	// far the timed pass got.
	fixedHeapMB float64
	// writeAllocs counts heap allocations inside the write calls (traced
	// passes only).
	writeAllocs uint64
}

// due is when object k's write was issued.
func (r *closedResult) due(k int) (time.Time, bool) {
	i := k / closedBatch
	if i >= len(r.batchStart) {
		return time.Time{}, false
	}
	return r.batchStart[i], true
}

// closedLoop issues ops from one goroutine, each after the previous
// returns. An iteration starts at each write. The loop stops at the first
// iteration boundary past the deadline once fixedIter iterations are done
// and no asserted tuple awaits its retraction, or when ops run out. Write
// and lifecycle calls are recorded as spans of writeLayer and lifeLayer.
// With heap set, the live heap (less base) is taken with the Stats.
func closedLoop(drv paretomon.Driver, d *data, ops []op, deadline time.Time, fixedIter int, heap bool, base float64, rec *recorder, writeLayer, lifeLayer string) closedResult {
	var r closedResult
	pending := false // a pref_add awaits its retraction
	start := time.Now()
	// atFixed runs off the clock: a Router's Stats is an HTTP fan-out,
	// and the heap reading forces a collection.
	atFixed := func() {
		t := time.Now()
		r.fixed = drv.Stats()
		if heap {
			r.fixedHeapMB = liveHeapMB() - base
		}
		start = start.Add(time.Since(t))
	}
	for idx, o := range ops {
		if o.kind == opWrite {
			if r.iterations == fixedIter {
				atFixed()
			}
			if r.iterations >= fixedIter && !pending && !time.Now().Before(deadline) {
				break
			}
			r.iterations++
		}
		var objs []paretomon.Object
		var m0 memSnap
		if o.kind == opWrite {
			objs = batchOf(d, o)
			if rec != nil {
				m0 = readMem()
			}
		}
		t := time.Now()
		err := apply(drv, o, objs)
		lat := ms(time.Since(t))
		r.attempted++
		r.ops = idx + 1
		if err != nil {
			r.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		}
		switch {
		case o.kind == opWrite:
			if rec != nil {
				r.writeAllocs += readMem().sub(m0).mallocs
			}
			rec.record(writeLayer, 0, t, o.n)
			r.write = append(r.write, lat)
			r.batchStart = append(r.batchStart, t)
			r.objects += o.n
		case o.kind == opRead:
			r.read = append(r.read, lat)
		default:
			pending = o.kind == opPrefAdd
			rec.record(lifeLayer, 0, t, 0)
			r.life = append(r.life, lat)
			r.lifeKind = append(r.lifeKind, o.kind)
		}
	}
	if r.iterations == fixedIter && r.ops == len(ops) {
		atFixed()
	}
	r.elapsed = time.Since(start)
	return r
}

// receipt is one delivery a subscriber saw.
type receipt struct {
	object string
	at     time.Time
}

// isDelivery reports whether a frontier delta is an arrival delivery
// (the object itself entering) rather than a lifecycle mend.
func isDelivery(object string, entered, left []string) bool {
	return len(left) == 0 && len(entered) == 1 && entered[0] == object
}

// deliveryLatencies joins receipts to the time each object's write was
// due, keeping the first receipt per object.
func deliveryLatencies(rs []receipt, due func(k int) (time.Time, bool)) []float64 {
	seen := make(map[string]bool, len(rs))
	var out []float64
	for _, r := range rs {
		if seen[r.object] {
			continue
		}
		seen[r.object] = true
		var k int
		if _, err := fmt.Sscanf(r.object, "o%d", &k); err != nil {
			continue
		}
		if t, ok := due(k - 1); ok {
			out = append(out, ms(r.at.Sub(t)))
		}
	}
	return out
}

// replay applies ops in order from one goroutine, off the clock. With a
// recorder, writes and lifecycle ops are recorded as monitor spans on the
// given track and the writes' allocations are counted; with a tally,
// deliveries are counted per user. skip leaves out ops for users the
// driver does not hold (a partition's slice of the community).
func replay(drv paretomon.Driver, d *data, ops []op, rec *recorder, track int, tally map[string]int, skip func(user string) bool) (writeAllocs uint64, err error) {
	for _, o := range ops {
		if o.user != "" && skip != nil && skip(o.user) {
			continue
		}
		var objs []paretomon.Object
		var m0 memSnap
		if o.kind == opWrite {
			objs = batchOf(d, o)
			if rec != nil {
				m0 = readMem()
			}
		}
		t := time.Now()
		if o.kind == opWrite && tally != nil {
			ds, err := drv.AddBatch(objs)
			if err != nil {
				return 0, fmt.Errorf("write: %w", err)
			}
			for _, dl := range ds {
				for _, u := range dl.Users {
					tally[u]++
				}
			}
			continue
		}
		if err := apply(drv, o, objs); err != nil {
			return 0, err
		}
		switch {
		case o.kind == opWrite:
			if rec != nil {
				writeAllocs += readMem().sub(m0).mallocs
			}
			rec.record("monitor.addbatch", track, t, o.n)
		case o.lifecycle():
			rec.record("monitor.lifecycle", track, t, 0)
		}
	}
	return writeAllocs, nil
}

// busiest returns the user with the most deliveries (the first in
// community order on ties), so the subscribed stream has the most
// samples.
func busiest(tally map[string]int, names []string) string {
	best := names[0]
	for _, u := range names {
		if tally[u] > tally[best] {
			best = u
		}
	}
	return best
}

// writeToReceipt times each receipt from the start of the latest write
// handler span, on the subscriber's track, that began before it: the
// server-side path from accepting a write to the client seeing it.
func writeToReceipt(rs []receipt, handlers []span, t0 time.Time, track int) []float64 {
	var starts []int64
	for _, s := range handlers {
		if s.Track == track {
			starts = append(starts, s.Start)
		}
	}
	var out []float64
	for _, r := range rs {
		at := int64(r.at.Sub(t0))
		i := sort.Search(len(starts), func(i int) bool { return starts[i] > at }) - 1
		if i >= 0 {
			out = append(out, ms(time.Duration(at-starts[i])))
		}
	}
	return out
}
