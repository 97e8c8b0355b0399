package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a module. Spans of one
// operation share a trace ID. parent links a span to the call it is a
// part of; because no span goes inside the program, a child is measured
// beside its parent on the same input rather than inside it.
type span struct {
	trace  int64
	parent int32
	name   string
	start  time.Duration // since the tracer's epoch
	end    time.Duration
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer keeps spans in memory until the run ends. Each goroutine records
// into its own spanBuf, so recording takes no lock.
type tracer struct {
	on    bool
	epoch time.Time
	mu    sync.Mutex
	bufs  []*spanBuf
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

// spanBuf is one goroutine's span log.
type spanBuf struct {
	tr    *tracer
	spans []span
}

// buf returns a new span log owned by the calling goroutine; nil when
// tracing is off, which makes every recording call a no-op.
func (t *tracer) buf() *spanBuf {
	if !t.on {
		return nil
	}
	b := &spanBuf{tr: t, spans: make([]span, 0, 1<<14)}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// begin opens a span and returns its index within the buffer.
func (b *spanBuf) begin(name string, trace int64, parent int32) int32 {
	if b == nil {
		return -1
	}
	b.spans = append(b.spans, span{trace: trace, parent: parent, name: name, start: time.Since(b.tr.epoch)})
	return int32(len(b.spans) - 1)
}

// end closes the span begin returned and returns its duration.
func (b *spanBuf) end(i int32) time.Duration {
	if b == nil || i < 0 {
		return 0
	}
	s := &b.spans[i]
	s.end = time.Since(b.tr.epoch)
	return s.dur()
}

// layerStats summarizes all spans of one name.
type layerStats struct {
	durs  []time.Duration
	selfs []time.Duration
}

// medianUS returns the median span duration in microseconds.
func (l *layerStats) medianUS() float64 { return medianDurUS(l.durs) }

// selfMedianUS returns the median self time in microseconds.
func (l *layerStats) selfMedianUS() float64 { return medianDurUS(l.selfs) }

func medianDurUS(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / 1e3
	}
	return median(xs)
}

// summarize groups spans by name. A span's self time is its duration
// minus the durations of its children.
func (t *tracer) summarize() map[string]*layerStats {
	out := make(map[string]*layerStats)
	for _, b := range t.bufs {
		child := make([]time.Duration, len(b.spans))
		for _, s := range b.spans {
			if s.parent >= 0 {
				child[s.parent] += s.dur()
			}
		}
		for i, s := range b.spans {
			l := out[s.name]
			if l == nil {
				l = &layerStats{}
				out[s.name] = l
			}
			l.durs = append(l.durs, s.dur())
			l.selfs = append(l.selfs, s.dur()-child[i])
		}
	}
	return out
}

func (t *tracer) count() int {
	n := 0
	for _, b := range t.bufs {
		n += len(b.spans)
	}
	return n
}

// write stores every span, one per line, under the checkout's build
// directory and returns the file's path.
func (t *tracer) write(cfg runConfig) (string, error) {
	dir := filepath.Join(buildDir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.tsv", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "buf\tspan\tparent\ttrace\tname\tstart_ns\tend_ns")
	for bi, b := range t.bufs {
		for i, s := range b.spans {
			fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%s\t%d\t%d\n", bi, i, s.parent, s.trace, s.name, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// buildDir is where the benchmark keeps what it writes, inside the
// checkout it runs from.
const buildDir = ".bench_build"

// sortedNames returns a map's keys in order.
func sortedNames[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
