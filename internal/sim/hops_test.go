package sim

import (
	"testing"

	"gmp/internal/geom"
	"gmp/internal/network"
	"gmp/internal/view"
)

// fanHandler sends each destination its own copy from the source: node 3
// via relay 1, every other destination directly.
type fanHandler struct{}

func (fanHandler) Start(v view.NodeView, pkt *Packet) []Forward {
	var out []Forward
	for _, d := range pkt.Dests {
		to := d
		if d == 3 {
			to = 1
		}
		out = append(out, Forward{To: to, Pkt: pkt.CloneFor([]int{d})})
	}
	return out
}

func (fanHandler) Decide(v view.NodeView, pkt *Packet) []Forward {
	return []Forward{{To: 3, Pkt: pkt}}
}

// fanNet places node 0 with neighbors 1, 2 and 4 at range 100, and node 3
// one hop beyond node 1.
func fanNet(t *testing.T) *network.Network {
	t.Helper()
	pts := []geom.Point{geom.Pt(300, 300), geom.Pt(400, 300), geom.Pt(300, 400),
		geom.Pt(500, 300), geom.Pt(200, 300)}
	nw, err := network.New(network.FromPoints(pts), 600, 600, 150)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// TestRunHopsOrder pins the hop-ordered policy: transmissions in apply
// order, each arriving exactly one hop after it is sent (no airtime, no
// serialization at the source's radio), and the per-call budget replacing
// the engine's.
func TestRunHopsOrder(t *testing.T) {
	e := NewEngine(fanNet(t), DefaultRadioParams(), 1)
	var events []TraceEvent
	e.SetTracer(func(ev TraceEvent) {
		if !ev.Died {
			events = append(events, ev)
		}
	})
	m := e.RunHops(Session{Handler: fanHandler{}, Src: 0, Dests: []int{4, 3, 2}}, 0)

	type tx struct {
		from, to, hops int
		time           float64
	}
	want := []tx{{0, 2, 1, 0}, {0, 1, 1, 0}, {0, 4, 1, 0}, {1, 3, 2, 1}}
	if len(events) != len(want) {
		t.Fatalf("%d transmissions, want %d: %+v", len(events), len(want), events)
	}
	for i, ev := range events {
		if got := (tx{ev.From, ev.To, ev.Hops, ev.Time}); got != want[i] {
			t.Fatalf("transmission %d = %+v, want %+v", i, got, want[i])
		}
	}
	if m.Failed() || m.Transmissions != 4 {
		t.Fatalf("metrics %+v", m.TaskMetrics)
	}
	for d, h := range m.Delivered {
		if m.DeliveredAt[d] != float64(h) {
			t.Fatalf("dest %d delivered at hop %d but time %v", d, h, m.DeliveredAt[d])
		}
	}

	// A budget of one kills the relayed copy before the air, reported as a
	// death; the engine's own budget is untouched.
	var deaths []TraceEvent
	e.SetTracer(func(ev TraceEvent) {
		if ev.Died {
			deaths = append(deaths, ev)
		}
	})
	m = e.RunHops(Session{Handler: fanHandler{}, Src: 0, Dests: []int{4, 3, 2}}, 1)
	if len(deaths) != 1 || deaths[0].Reason != ReasonHopBudget || deaths[0].From != 1 ||
		deaths[0].Hops != 2 || len(deaths[0].Dests) != 1 || deaths[0].Dests[0] != 3 {
		t.Fatalf("deaths %+v", deaths)
	}
	if m.DestDropsByReason[ReasonHopBudget] != 1 || len(m.Delivered) != 2 || e.MaxHops() != 1 {
		t.Fatalf("metrics %+v, engine budget %d", m.TaskMetrics, e.MaxHops())
	}
}

// relayHandler walks a chain one node at a time, reusing its forward slice
// so that it allocates nothing itself.
type relayHandler struct{ buf [1]Forward }

func (h *relayHandler) Start(v view.NodeView, pkt *Packet) []Forward { return h.Decide(v, pkt) }

func (h *relayHandler) Decide(v view.NodeView, pkt *Packet) []Forward {
	h.buf[0] = Forward{To: v.Self() + 1, Pkt: pkt}
	return h.buf[:]
}

// TestRunHopsRecyclesCopies: under the hop-ordered policy every copy goes
// back to the lane once its decision is applied, so a warm run's
// allocations do not grow with the path length.
func TestRunHopsRecyclesCopies(t *testing.T) {
	allocs := func(n int) float64 {
		e := NewEngine(chainNet(t, n), DefaultRadioParams(), 0)
		h := &relayHandler{}
		s := Session{Handler: h, Src: 0, Dests: []int{n - 1}}
		e.RunHops(s, 0)
		return testing.AllocsPerRun(20, func() { e.RunHops(s, 0) })
	}
	if short, long := allocs(4), allocs(40); long > short {
		t.Fatalf("a 39-hop run allocates %v, a 3-hop run %v", long, short)
	}
}

// TestRunHopsRefusesInstalledPlans: the hop-ordered policy models no
// faults, ARQ, churn or sharding, so an engine carrying any of them is
// refused instead of silently ignoring it.
func TestRunHopsRefusesInstalledPlans(t *testing.T) {
	nw := chainNet(t, 4)
	s := Session{Handler: chainHandler{}, Src: 0, Dests: []int{3}}
	cases := []struct {
		name    string
		install func(e *Engine) error
	}{
		{"faults", func(e *Engine) error { return e.SetFaults(FaultPlan{LossRate: 0.1}) }},
		{"arq", func(e *Engine) error { return e.SetARQ(DefaultARQ()) }},
		{"churn", func(e *Engine) error {
			return e.SetChurn(ChurnPlan{Leaves: []Membership{{Node: 3, At: 0.5}}})
		}},
		{"sharding", func(e *Engine) error {
			return e.SetSharding(ShardConfig{Shards: 2, Window: Lookahead(e.Radio(), e.ARQ())})
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := NewEngine(nw, DefaultRadioParams(), 0)
			if err := c.install(e); err != nil {
				t.Fatal(err)
			}
			defer func() {
				if recover() == nil {
					t.Fatalf("RunHops with %s installed did not panic", c.name)
				}
			}()
			e.RunHops(s, 0)
		})
	}
	e := NewEngine(nw, DefaultRadioParams(), 0)
	if m := e.RunHops(s, 0); m.Failed() {
		t.Fatalf("plain engine: %+v", m.TaskMetrics)
	}
}
