package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	paretomon "repro"
)

// span is one timed call into a layer. Track separates concurrent
// timelines (the partition a handler ran on); a span's children are the
// spans of a deeper layer on the same track that lie inside it, so a
// layer's self time is its span minus the part its children cover.
type span struct {
	Layer string `json:"layer"`
	Track int    `json:"track"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	N     int    `json:"n"` // objects in the call, or bytes for storage
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay one nil check per call.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) record(layer string, track int, start time.Time, n int) {
	if r == nil {
		return
	}
	end := time.Now()
	r.mu.Lock()
	r.spans = append(r.spans, span{Layer: layer, Track: track, Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0)), N: n})
	r.mu.Unlock()
}

// of returns the spans of one layer in start order.
func (r *recorder) of(layer string) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.Layer == layer {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// covered returns how much of parent's interval the child spans
// on its track cover.
func covered(parent span, child []span) time.Duration {
	var d int64
	for _, c := range child {
		if c.Track != parent.Track || c.End <= parent.Start || c.Start >= parent.End {
			continue
		}
		d += min(c.End, parent.End) - max(c.Start, parent.Start)
	}
	return time.Duration(d)
}

// write stores every span as JSON lines under dir.
func (r *recorder) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// timedStore is a paretomon.Store decorator timing the WAL appends and
// snapshot writes the monitor makes through WithStore.
type timedStore struct {
	paretomon.Store
	rec *recorder
}

func (s timedStore) Append(recs ...paretomon.WALRecord) error {
	t := time.Now()
	err := s.Store.Append(recs...)
	s.rec.record("storage.append", 0, t, len(recs))
	return err
}

func (s timedStore) WriteSnapshot(seq uint64, body []byte) error {
	t := time.Now()
	err := s.Store.WriteSnapshot(seq, body)
	s.rec.record("storage.snapshot", 0, t, len(body))
	return err
}

// handlerLayer names the span a request to a server.New handler records;
// "" leaves the request untimed (long-lived SSE streams).
func handlerLayer(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && p == "/objects/batch":
		return "server.batch"
	case r.Method == http.MethodGet && strings.HasPrefix(p, "/frontier/"):
		return "server.frontier"
	case strings.HasPrefix(p, "/deltas/"):
		return ""
	case p == "/preferences" || (r.Method == http.MethodDelete && strings.HasPrefix(p, "/objects/")):
		return "server.lifecycle"
	default:
		return "server.other"
	}
}

// timedHandler is middleware timing every request a handler serves.
func timedHandler(h http.Handler, rec *recorder, track int) http.Handler {
	if rec == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		layer := handlerLayer(r)
		if layer == "" {
			h.ServeHTTP(w, r)
			return
		}
		t := time.Now()
		h.ServeHTTP(w, r)
		rec.record(layer, track, t, 0)
	})
}

// timedTransport times client round trips, from writing the request to
// reading the response headers. tracks maps a partition's host to its
// index.
type timedTransport struct {
	base   http.RoundTripper
	rec    *recorder
	tracks map[string]int
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	layer := "client." + strings.TrimPrefix(handlerLayer(req), "server.")
	t.rec.record(layer, t.tracks[req.URL.Host], start, 0)
	return resp, err
}

// newTransport returns a keep-alive transport holding at most conns
// connections per host.
func newTransport(conns int) *http.Transport {
	return &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
}

// spanMillis converts span durations to milliseconds.
func spanMillis(ss []span) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = ms(s.dur())
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile is the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// memSnap is the runtime counters a layer measurement differences.
type memSnap struct {
	mallocs, totalAlloc, pauseNs uint64
}

func readMem() memSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnap{m.Mallocs, m.TotalAlloc, m.PauseTotalNs}
}

func (a memSnap) sub(b memSnap) memSnap {
	return memSnap{a.mallocs - b.mallocs, a.totalAlloc - b.totalAlloc, a.pauseNs - b.pauseNs}
}

// liveHeapMB forces a collection and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}
