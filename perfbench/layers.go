package main

import (
	"runtime"
	"time"

	"geodabs"
	"geodabs/internal/wire"
)

// layerUnits lists every per-layer metric with its unit. A traced run
// prints all of them; a layer the workload does not exercise reads 0
// (see README.md for which layers each workload reaches).
var layerUnits = map[string]string{
	"core.extract_us":           "us",
	"core.terms":                "count",
	"index.search_us":           "us",
	"index.candidates":          "count",
	"index.pruned":              "count",
	"index.upsert_us":           "us",
	"index.ingest_traj_per_s":   "1/s",
	"index.allocs_per_search":   "count",
	"geodabs.search_self_us":    "us",
	"geodabs.rerank_self_us":    "us",
	"cluster.plan_us":           "us",
	"cluster.scatter_us":        "us",
	"cluster.wire_partials":     "count",
	"cluster.node_pruned":       "count",
	"cluster.nodes_touched":     "count",
	"cluster.upsert_us":         "us",
	"cluster.rerank_us":         "us",
	"cluster.lb_skip_rate":      "ratio",
	"cluster.allocs_per_search": "count",
	"wire.encode_us":            "us",
	"wire.decode_us":            "us",
	"server.self_us":            "us",
	"server.shed":               "count",
	"wal.fsyncs_per_write":      "ratio",
	"wal.bytes_per_user_byte":   "ratio",
	"distance.dtw_ns_per_cell":  "ns",
	"distance.dfd_ns_per_cell":  "ns",
	"distance.cells_per_query":  "count",
	"go.gc_cycles":              "count",
	"go.alloc_mb_per_op":        "MB",
	"loadgen.late_ms":           "ms",
	"trace.overhead_pct":        "%",
}

// setLayer records a per-layer metric under its listed unit.
func (r *report) setLayer(name string, v float64) {
	unit, ok := layerUnits[name]
	if !ok {
		panic("perfbench: unlisted layer metric " + name)
	}
	r.layers[name] = metric{Value: v, Unit: unit}
}

// zeroLayers starts every per-layer metric at 0, for the layers the
// workload never reaches.
func (r *report) zeroLayers() {
	for name := range layerUnits {
		r.setLayer(name, 0)
	}
}

// timeSetups performs build n times, each after releasing the previous
// result and forcing a GC, and returns the last result. It records
// setup_s as the median wall time and live_heap_mb as the median live
// heap a set-up adds: HeapAlloc after a forced GC once the set-up is done
// minus HeapAlloc after a forced GC just before it, with the benchmark's
// own inputs live in both readings, so they do not count. Input
// generation happens before and is not timed.
func timeSetups[T any](r *report, n int, build func() (T, error), release func(T)) (T, error) {
	var (
		cur          T
		have         bool
		times, heaps []float64
	)
	sb := r.tr.buf()
	for i := 0; i < n; i++ {
		if have {
			release(cur)
			var zero T
			cur, have = zero, false
		}
		base := liveHeapMB()
		sp := sb.begin("setup", int64(i), -1)
		start := time.Now()
		v, err := build()
		times = append(times, since(start))
		sb.end(sp)
		if err != nil {
			return cur, err
		}
		cur, have = v, true
		heaps = append(heaps, liveHeapMB()-base)
	}
	r.printf("setup: %d runs %v s", len(times), times)
	r.printf("setup: live heap added %v MB", heaps)
	r.e2e("setup_s", median(times), "s")
	r.e2e("live_heap_mb", median(heaps), "MB")
	return cur, nil
}

// liveHeapMB forces a GC and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// goCounters samples the runtime's GC and allocation counters.
type goCounters struct {
	gcs   uint32
	alloc uint64
}

func readGoCounters() goCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return goCounters{gcs: ms.NumGC, alloc: ms.TotalAlloc}
}

// recordGo reports GC cycles and allocated MB per operation between two
// samples taken around the measured phases.
func (r *report) recordGo(before, after goCounters, ops int64) {
	r.setLayer("go.gc_cycles", float64(after.gcs-before.gcs))
	if ops > 0 {
		r.setLayer("go.alloc_mb_per_op", float64(after.alloc-before.alloc)/(1<<20)/float64(ops))
	}
}

// mallocsPer returns the heap allocations per call of f over n calls.
func mallocsPer(n int, f func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

// overhead records the tracing overhead: in a traced run the latency
// phase records spans on even rounds only, so the two halves compare the
// same operation mix with and without span recording.
func (r *report) overhead(traced, plain samples) {
	if len(traced) == 0 || len(plain) == 0 {
		return
	}
	t, p := traced.sorted().quantileMS(0.5), plain.sorted().quantileMS(0.5)
	r.printf("tracing overhead: p50 %.4f ms with spans, %.4f ms without (n=%d, %d)", t, p, len(traced), len(plain))
	r.setLayer("trace.overhead_pct", (t/p-1)*100)
}

// probeKernels times the program's exact metrics on pairs of the
// workload's own trajectories and records their cost per DP cell.
func (r *report) probeKernels(pairs [][2][]geodabs.Point) {
	sb := r.tr.buf()
	for _, k := range []struct {
		name   string
		metric func(a, b []geodabs.Point) float64
		layer  string
	}{{"distance.DTW", geodabs.DTW, "distance.dtw_ns_per_cell"}, {"distance.DFD", geodabs.DFD, "distance.dfd_ns_per_cell"}} {
		var cells float64
		var total time.Duration
		for i, p := range pairs {
			sp := sb.begin(k.name, int64(i), -1)
			start := time.Now()
			k.metric(p[0], p[1])
			total += time.Since(start)
			sb.end(sp)
			cells += float64(len(p[0]) * len(p[1]))
		}
		if cells > 0 {
			r.setLayer(k.layer, float64(total.Nanoseconds())/cells)
		}
	}
}

// probeWire times the client protocol's encoding and decoding of a
// fingerprint search request and its response for each probe query.
func (r *report) probeWire(terms [][]uint32, hits [][]geodabs.Result) {
	sb := r.tr.buf()
	var enc, dec []float64
	buf := make([]byte, 0, 4096)
	for i := range terms {
		req := &wire.Request{Op: wire.OpSearchFP, ID: uint64(i), MaxDistance: 1, KNN: 10, Terms: terms[i]}
		resp := &wire.Response{ID: uint64(i), Status: wire.StatusOK}
		for _, h := range hits[i] {
			resp.Hits = append(resp.Hits, wire.Hit{ID: uint32(h.ID), Distance: h.Distance, Shared: uint32(h.Shared)})
		}
		sp := sb.begin("wire.encode", int64(i), -1)
		start := time.Now()
		buf = wire.AppendRequest(buf[:0], req)
		n := len(buf)
		buf = wire.AppendResponse(buf, resp)
		enc = append(enc, float64(time.Since(start).Nanoseconds())/1e3)
		sb.end(sp)
		sp = sb.begin("wire.decode", int64(i), -1)
		start = time.Now()
		_, err1 := wire.DecodeRequest(buf[:n])
		_, err2 := wire.DecodeResponse(buf[n:])
		dec = append(dec, float64(time.Since(start).Nanoseconds())/1e3)
		sb.end(sp)
		if err1 != nil || err2 != nil {
			r.fail("wire probe %d: decode: %v %v", i, err1, err2)
		}
	}
	r.setLayer("wire.encode_us", median(enc))
	r.setLayer("wire.decode_us", median(dec))
}
