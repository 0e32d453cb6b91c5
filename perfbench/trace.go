package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// maxSpans caps the spans one tracer keeps; later spans are counted as
// dropped so a long traced run cannot exhaust memory.
const maxSpans = 1 << 21

// maxExport caps the spans written out, so traced runs over many seeds do
// not fill the disk; the first spans of each tracer in turn are kept.
const maxExport = 200_000

// span is one timed call into a layer, recorded by the benchmark around the
// call. Parent indexes the enclosing span in the same tracer (-1: none);
// Req identifies the request or task the span served.
type span struct {
	Name       string
	Start, End int64 // ns since the tracer's epoch
	Parent     int32
	Req        int64
}

// tracer records spans in memory for one goroutine. A nil *tracer records
// nothing, so untraced code paths pay one nil check per call.
type tracer struct {
	epoch   time.Time
	spans   []span
	dropped int
}

func newTracer(epoch time.Time) *tracer {
	return &tracer{epoch: epoch, spans: make([]span, 0, 1<<14)}
}

// begin opens a span and returns its handle for end; -1 when not recorded.
func (t *tracer) begin(name string, parent int32, req int64) int32 {
	if t == nil {
		return -1
	}
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.epoch)), Parent: parent, Req: req})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.epoch))
}

// layerTimes aggregates spans by name: count, total and self time, where a
// span's self time is its duration minus its children's.
type layerTimes struct {
	Count int64
	Total time.Duration
	Self  time.Duration
}

// total is the summed duration; 0 for a span name never recorded.
func (lt *layerTimes) total() time.Duration {
	if lt == nil {
		return 0
	}
	return lt.Total
}

// aggregate folds the spans of every tracer by span name.
func aggregate(ts ...*tracer) map[string]*layerTimes {
	out := map[string]*layerTimes{}
	for _, t := range ts {
		child := make([]int64, len(t.spans))
		for _, s := range t.spans {
			if s.Parent >= 0 {
				child[s.Parent] += s.End - s.Start
			}
		}
		for i, s := range t.spans {
			lt := out[s.Name]
			if lt == nil {
				lt = &layerTimes{}
				out[s.Name] = lt
			}
			lt.Count++
			lt.Total += time.Duration(s.End - s.Start)
			lt.Self += time.Duration(s.End - s.Start - child[i])
		}
	}
	return out
}

// meanUs is the mean span duration of name in microseconds (0 if absent).
func meanUs(agg map[string]*layerTimes, name string) float64 {
	lt := agg[name]
	if lt == nil || lt.Count == 0 {
		return 0
	}
	return float64(lt.Total) / float64(time.Microsecond) / float64(lt.Count)
}

// selfTable renders per-layer self time, the layer being a span name's
// prefix before the first dot.
func selfTable(agg map[string]*layerTimes) []string {
	byLayer := map[string]time.Duration{}
	var total time.Duration
	for name, lt := range agg {
		layer, _, _ := strings.Cut(name, ".")
		byLayer[layer] += lt.Self
		total += lt.Self
	}
	layers := make([]string, 0, len(byLayer))
	for l := range byLayer {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	var lines []string
	for _, l := range layers {
		lines = append(lines, fmt.Sprintf("self time %-8s %10.3f s  %5.1f%%", l,
			byLayer[l].Seconds(), 100*byLayer[l].Seconds()/total.Seconds()))
	}
	return lines
}

// spanCount is how many spans the tracers recorded.
func spanCount(ts ...*tracer) int {
	n := 0
	for _, t := range ts {
		n += len(t.spans)
	}
	return n
}

// export writes up to maxExport spans as tab-separated values, one tracer
// after the other; span ids are global line numbers, parents refer to them.
// It returns how many spans it wrote.
func export(path string, ts ...*tracer) (int, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\treq\tname\tstart_ns\tend_ns")
	base := 0
	dropped := 0
	for _, t := range ts {
		spans := t.spans[:min(len(t.spans), maxExport-base)]
		for i, s := range spans {
			parent := int64(-1)
			if s.Parent >= 0 {
				parent = int64(base) + int64(s.Parent)
			}
			fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", base+i, parent, s.Req, s.Name, s.Start, s.End)
		}
		base += len(spans)
		dropped += t.dropped
	}
	if err := w.Flush(); err != nil {
		return 0, err
	}
	if dropped > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d spans over the %d-span cap were not kept\n", dropped, maxSpans)
	}
	return base, f.Close()
}

// publishSpans notes each layer's self time and exports the spans.
func publishSpans(cfg config, res *result, agg map[string]*layerTimes, ts ...*tracer) error {
	for _, l := range selfTable(agg) {
		res.note("%s", l)
	}
	n, err := export(spanPath(cfg), ts...)
	if err != nil {
		return fmt.Errorf("span export: %w", err)
	}
	res.note("exported %d of %d spans to %s", n, spanCount(ts...), spanPath(cfg))
	return nil
}

// spanPath is where a traced run exports its spans.
func spanPath(cfg config) string {
	return filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.tsv", cfg.Workload, cfg.Seed))
}
