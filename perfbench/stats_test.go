package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6},
	} {
		if got := percentile(append([]float64(nil), xs...), c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestTailLevelKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10, 0}, {11, 1 - 10.0/11}, {100, 0.9}, {500, 0.98}, {1000, 0.99}, {50000, 0.99},
	} {
		if got := tailLevel(c.n); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("tailLevel(%d) = %v, want %v", c.n, got, c.want)
		}
		if c.n > minTail {
			beyond := float64(c.n) * (1 - tailLevel(c.n))
			if beyond < minTail-1e-9 {
				t.Errorf("tailLevel(%d) leaves %.2f samples beyond", c.n, beyond)
			}
		}
	}
}

func TestSummarizeWindowsTheTail(t *testing.T) {
	// 4000 samples of 1 ms with one stall of 100 slow samples inside the
	// first window: the windowed tail ignores it, the median is untouched,
	// and the input keeps its time order.
	xs := make([]float64, 4000)
	for i := range xs {
		xs[i] = 1
	}
	for i := 100; i < 200; i++ {
		xs[i] = 50
	}
	s := summarize(xs)
	if s.N != 4000 || s.Windows != 4 || s.TailP != 0.99 {
		t.Fatalf("summary %+v, want 4 windows at p99 over 4000", s)
	}
	if s.P50 != 1 || s.Tail != 1 {
		t.Errorf("p50 %v tail %v, want 1 and 1", s.P50, s.Tail)
	}
	if xs[150] != 50 {
		t.Error("summarize reordered its input")
	}
	// Below two windows the tail is read over the whole sample.
	small := summarize(xs[:1500])
	if small.Windows != 1 || small.Tail != 50 {
		t.Errorf("small summary %+v, want one window whose tail sees the stall", small)
	}
}

func TestBlockRateTakesTheMedianBlock(t *testing.T) {
	// 100 completions/s for 32 s, out of order, with one 5 s stall: the
	// median block rate is unmoved by the stall.
	var ends []time.Duration
	at := time.Duration(0)
	for i := 0; i < 3200; i++ {
		at += 10 * time.Millisecond
		if i == 1600 {
			at += 5 * time.Second
		}
		ends = append(ends, at)
	}
	ends[0], ends[3199] = ends[3199], ends[0]
	if got := blockRate(ends, at); math.Abs(got-100) > 1e-9 {
		t.Errorf("blockRate = %v, want 100", got)
	}
	if got := blockRate(ends[:10], 2*time.Second); got != 5 {
		t.Errorf("blockRate with fewer completions than blocks = %v, want the mean 5", got)
	}
}

func TestMaxRateStopsAtFirstUnsustainedRung(t *testing.T) {
	ok := func(rate float64) step {
		return step{Rate: rate, Sent: 2000, Lat: summary{N: 2000, Tail: 1}, LateTail: 0.1}
	}
	const limit, late = 5, 2
	failed := ok(3000)
	failed.Failed = 1
	slow := ok(3000)
	slow.Lat.Tail = 6
	lateGen := ok(3000)
	lateGen.LateTail = 3
	backlog := ok(3000)
	backlog.Backlog = true
	for name, c := range map[string]struct {
		steps []step
		want  float64
	}{
		"all pass":        {[]step{ok(1000), ok(2000), ok(3000)}, 3000},
		"failure":         {[]step{ok(1000), ok(2000), failed, ok(4000)}, 2000},
		"tail over limit": {[]step{ok(1000), slow}, 1000},
		"late generator":  {[]step{ok(1000), ok(2000), lateGen}, 2000},
		"backlog":         {[]step{backlog, ok(4000)}, 0},
		"empty":           {nil, 0},
	} {
		if got := maxRate(c.steps, limit, late); got != c.want {
			t.Errorf("%s: maxRate = %v, want %v", name, got, c.want)
		}
	}
}

func TestFingerprintIsOrderSensitiveAndStable(t *testing.T) {
	a, b, c := newFingerprint(), newFingerprint(), newFingerprint()
	a.add(1, 2, 3)
	b.add(1, 2, 3)
	c.add(3, 2, 1)
	if a.sum() != b.sum() {
		t.Error("equal inputs gave different digests")
	}
	if a.sum() == c.sum() {
		t.Error("reordered inputs gave the same digest")
	}
	// The digest is FNV-1a over little-endian int64s (value checked against
	// an independent implementation): pin it so a change of encoding cannot
	// silently invalidate recorded fingerprints.
	d := newFingerprint()
	d.add(65828, 35600)
	if got, want := d.sum(), uint64(0x4dc5bfb78556b2d2); got != want {
		t.Errorf("digest %#x, want %#x", got, want)
	}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark %d", len(spec.PerLayer), len(layerMetrics))
	}
	for i, m := range spec.PerLayer {
		if m.Name != layerMetrics[i][0] || m.Unit != layerMetrics[i][1] {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s (%s), benchmark %s (%s)",
				i, m.Name, m.Unit, layerMetrics[i][0], layerMetrics[i][1])
		}
	}
	res := newResult()
	reportEndToEnd(res, 1, 1, summary{P50: 1, Tail: 1})
	if len(res.e2e) != len(spec.EndToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the benchmark reports %d", len(spec.EndToEnd), len(res.e2e))
	}
	for _, m := range spec.EndToEnd {
		if got, ok := res.e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end metric %s (%s): benchmark reports %+v", m.Name, m.Unit, got)
		}
	}
}
