package sim

import (
	"math"
	"testing"
)

func TestRunScriptSingleSessionMatchesRunTask(t *testing.T) {
	nw := chainNet(t, 6)
	e := NewEngine(nw, DefaultRadioParams(), 0)
	task := e.RunTask(chainHandler{}, 0, []int{5})
	script := e.RunScript([]Session{{Handler: chainHandler{}, Src: 0, Dests: []int{5}}})
	if script[0].Transmissions != task.Transmissions ||
		script[0].EnergyJ != task.EnergyJ ||
		script[0].Delivered[5] != task.Delivered[5] {
		t.Fatalf("script %+v vs task %+v", script[0].TaskMetrics, task)
	}
	// Latency of an unloaded chain: 5 sequential airtimes.
	want := 5 * DefaultRadioParams().TxTime()
	if got := script[0].MaxLatency(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("MaxLatency = %v, want %v", got, want)
	}
	if got := script[0].MeanLatency(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("MeanLatency = %v", got)
	}
}

func TestRunScriptSessionsAccountedSeparately(t *testing.T) {
	nw := chainNet(t, 6)
	e := NewEngine(nw, DefaultRadioParams(), 0)
	res := e.RunScript([]Session{
		{Start: 0, Handler: chainHandler{}, Src: 0, Dests: []int{3}},
		{Start: 0, Handler: chainHandler{}, Src: 1, Dests: []int{4}},
	})
	if res[0].Transmissions != 3 || res[1].Transmissions != 3 {
		t.Fatalf("transmissions = %d, %d", res[0].Transmissions, res[1].Transmissions)
	}
	if res[0].Failed() || res[1].Failed() {
		t.Fatal("both sessions must deliver")
	}
	if _, ok := res[0].Delivered[4]; ok {
		t.Fatal("session 0 credited with session 1's destination")
	}
}

func TestRunScriptHalfDuplexSerialization(t *testing.T) {
	// Two sessions from the SAME source at the same instant: the second
	// frame queues behind the first, so its destination's latency includes
	// the queueing delay.
	nw := chainNet(t, 3)
	e := NewEngine(nw, DefaultRadioParams(), 0)
	res := e.RunScript([]Session{
		{Start: 0, Handler: chainHandler{}, Src: 0, Dests: []int{1}},
		{Start: 0, Handler: chainHandler{}, Src: 0, Dests: []int{1}},
	})
	tx := DefaultRadioParams().TxTime()
	l0, l1 := res[0].MaxLatency(), res[1].MaxLatency()
	if math.Abs(l0-tx) > 1e-9 {
		t.Fatalf("first frame latency = %v, want %v", l0, tx)
	}
	if math.Abs(l1-2*tx) > 1e-9 {
		t.Fatalf("queued frame latency = %v, want %v", l1, 2*tx)
	}
}

func TestRunScriptStaggeredStarts(t *testing.T) {
	nw := chainNet(t, 4)
	e := NewEngine(nw, DefaultRadioParams(), 0)
	res := e.RunScript([]Session{
		{Start: 0.5, Handler: chainHandler{}, Src: 0, Dests: []int{3}},
		{Start: 0.1, Handler: chainHandler{}, Src: 0, Dests: []int{3}},
	})
	if res[0].StartTime != 0.5 || res[1].StartTime != 0.1 {
		t.Fatal("start times lost")
	}
	// The earlier session finishes first in absolute time, and both see
	// identical unloaded latency (no overlap at these offsets).
	at0 := res[0].DeliveredAt[3]
	at1 := res[1].DeliveredAt[3]
	if !(at1 < at0) {
		t.Fatalf("delivery order wrong: %v vs %v", at1, at0)
	}
	if math.Abs(res[0].MaxLatency()-res[1].MaxLatency()) > 1e-9 {
		t.Fatalf("unloaded latencies differ: %v vs %v",
			res[0].MaxLatency(), res[1].MaxLatency())
	}
}

func TestSessionMetricsEmptyLatency(t *testing.T) {
	m := SessionMetrics{DeliveredAt: map[int]float64{}}
	if m.MaxLatency() != 0 || m.MeanLatency() != 0 {
		t.Fatal("empty latency should be 0")
	}
}

func TestRunScriptSelfDelivery(t *testing.T) {
	nw := chainNet(t, 3)
	e := NewEngine(nw, DefaultRadioParams(), 0)
	res := e.RunScript([]Session{{Start: 2, Handler: chainHandler{}, Src: 1, Dests: []int{1}}})
	if res[0].Failed() {
		t.Fatal("self delivery failed")
	}
	if res[0].DeliveredAt[1] != 2 {
		t.Fatalf("self delivery time = %v, want session start", res[0].DeliveredAt[1])
	}
}

// TestRunScriptRejectsBadStart: a session start that is not a finite
// non-negative time is a programming error under both scheduling policies
// — it would otherwise run at a NaN or infinite clock, or never start and
// leave its destinations outside the conservation accounting.
func TestRunScriptRejectsBadStart(t *testing.T) {
	nw := chainNet(t, 12)
	for _, start := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1e-3} {
		for _, shards := range []int{0, 1, 4} {
			e := NewEngine(nw, DefaultRadioParams(), 0)
			if shards > 0 {
				shardedOver(t, e, shards)
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("start %v, shards %d: RunScript did not panic", start, shards)
					}
				}()
				e.RunScript([]Session{{Start: start, Handler: chainHandler{}, Src: 0, Dests: []int{3, 7, 11}}})
			}()
		}
	}
}

// TestEngineNowReadsKernelClock: Now is 0 on a fresh engine and the time of
// the last executed event after a run, under both scheduling policies.
func TestEngineNowReadsKernelClock(t *testing.T) {
	nw := chainNet(t, 12)
	want := 0.002 + 11*DefaultRadioParams().TxTime() // start + 11 chained hops
	for _, shards := range []int{0, 1, 4} {
		e := NewEngine(nw, DefaultRadioParams(), 0)
		if shards > 0 {
			shardedOver(t, e, shards)
		}
		if got := e.Now(); got != 0 {
			t.Fatalf("shards %d: fresh engine Now = %v, want 0", shards, got)
		}
		m := e.RunScript([]Session{{Start: 0.002, Handler: chainHandler{}, Src: 0, Dests: []int{3, 7, 11}}})[0]
		if m.Failed() {
			t.Fatalf("shards %d: chain delivery failed: %+v", shards, m)
		}
		if got := e.Now(); math.Abs(got-want) > 1e-12 || got != m.DeliveredAt[11] {
			t.Fatalf("shards %d: Now = %v, want %v (last delivery %v)", shards, got, want, m.DeliveredAt[11])
		}
	}
}
