// Package trace reconstructs and analyzes the forwarding structure of a
// simulated multicast task from the engine's transmission events: the
// realized forwarding tree, per-destination paths and stretch factors,
// branching statistics, and DOT/JSON exports for visualization tooling.
package trace

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"gmp/internal/network"
	"gmp/internal/sim"
)

// Hop is one reconstructed transmission, enriched with geometry.
type Hop struct {
	Seq       int     `json:"seq"`
	Time      float64 `json:"time"`
	From      int     `json:"from"`
	To        int     `json:"to"`
	Hops      int     `json:"hops"`
	Perimeter bool    `json:"perimeter"`
	DistM     float64 `json:"distM"`
	Dests     []int   `json:"dests"`
}

// Analysis is the digest of one task's forwarding behavior.
type Analysis struct {
	// Hops are all transmissions in send order.
	Hops []Hop
	// Paths maps each delivered destination to its hop-by-hop node path
	// from the source.
	Paths map[int][]int
	// Stretch maps each delivered destination to the ratio of its path
	// hop count over the BFS-optimal hop count (1.0 = optimal; +Inf only
	// for degenerate zero-hop optima, which cannot occur for dests ≠ src).
	Stretch map[int]float64
	// MetersTotal is the summed geometric length of all transmissions.
	MetersTotal float64
	// MeanStride is MetersTotal divided by the number of transmissions.
	MeanStride float64
	// PerimeterHops counts transmissions made in perimeter mode.
	PerimeterHops int
	// BranchPoints counts nodes that transmitted more than one copy.
	BranchPoints int
	// Source is the task's source node.
	Source int
}

// ErrNoEvents is returned when an analysis is requested for an empty trace.
var ErrNoEvents = errors.New("trace: no transmission events")

// Collector accumulates engine trace events for later analysis. Install
// with engine.SetTracer(c.Record).
type Collector struct {
	events []sim.TraceEvent
}

// Record implements sim.TraceFunc. It keeps transmissions only, each
// detached from the engine's packet storage.
func (c *Collector) Record(ev sim.TraceEvent) {
	if !ev.Died {
		ev.Dests = append([]int(nil), ev.Dests...)
		ev.Pkt = nil
		c.events = append(c.events, ev)
	}
}

// Events returns the recorded events in send order.
func (c *Collector) Events() []sim.TraceEvent { return c.events }

// Reset clears the collector for reuse.
func (c *Collector) Reset() { c.events = c.events[:0] }

// Analyze digests the events of one task run. src is the task's source and
// delivered the engine's per-destination delivery hop counts.
func Analyze(nw *network.Network, src int, events []sim.TraceEvent, delivered map[int]int) (*Analysis, error) {
	if len(events) == 0 {
		return nil, ErrNoEvents
	}
	a := &Analysis{
		Paths:   make(map[int][]int, len(delivered)),
		Stretch: make(map[int]float64, len(delivered)),
		Source:  src,
	}
	// parentAt[hopDepth][node] = sender that delivered the copy reaching
	// node at that depth. Depth disambiguates nodes visited repeatedly
	// (perimeter loops).
	type key struct{ node, depth int }
	parent := make(map[key]int, len(events))
	txCount := make(map[int]int)
	for i, ev := range events {
		d := nw.Dist(ev.From, ev.To)
		a.Hops = append(a.Hops, Hop{
			Seq:       i,
			Time:      ev.Time,
			From:      ev.From,
			To:        ev.To,
			Hops:      ev.Hops,
			Perimeter: ev.Perimeter,
			DistM:     d,
			Dests:     append([]int(nil), ev.Dests...),
		})
		a.MetersTotal += d
		if ev.Perimeter {
			a.PerimeterHops++
		}
		txCount[ev.From]++
		if _, dup := parent[key{ev.To, ev.Hops}]; !dup {
			parent[key{ev.To, ev.Hops}] = ev.From
		}
	}
	a.MeanStride = a.MetersTotal / float64(len(events))
	for _, c := range txCount {
		if c > 1 {
			a.BranchPoints++
		}
	}

	// Reconstruct per-destination paths by walking parents backwards from
	// the delivery depth.
	bfs := nw.HopDistances(src)
	for dest, depth := range delivered {
		if depth == 0 {
			continue // source self-delivery: no transmissions, no path
		}
		path := []int{dest}
		node, dpt := dest, depth
		ok := true
		for dpt > 0 {
			p, found := parent[key{node, dpt}]
			if !found {
				ok = false
				break
			}
			path = append(path, p)
			node = p
			dpt--
		}
		if !ok || node != src {
			continue // source self-delivery or unreconstructable path
		}
		reverse(path)
		a.Paths[dest] = path
		if opt := bfs[dest]; opt > 0 {
			a.Stretch[dest] = float64(depth) / float64(opt)
		} else if depth == 0 {
			a.Stretch[dest] = 1
		}
	}
	return a, nil
}

func reverse(s []int) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

// MaxStretch returns the largest per-destination stretch (0 when no paths
// were reconstructed).
func (a *Analysis) MaxStretch() float64 {
	var m float64
	for _, s := range a.Stretch {
		if s > m {
			m = s
		}
	}
	return m
}

// Transmissions returns the total number of hops in the trace.
func (a *Analysis) Transmissions() int { return len(a.Hops) }

// DOT renders the realized forwarding structure in Graphviz DOT format.
// Destinations are drawn as boxes, the source as a double circle.
func (a *Analysis) DOT() string {
	var b strings.Builder
	b.WriteString("digraph multicast {\n")
	fmt.Fprintf(&b, "  n%d [shape=doublecircle];\n", a.Source)
	dests := make([]int, 0, len(a.Paths))
	for d := range a.Paths {
		dests = append(dests, d)
	}
	sort.Ints(dests)
	for _, d := range dests {
		fmt.Fprintf(&b, "  n%d [shape=box];\n", d)
	}
	seen := make(map[[2]int]bool)
	for _, h := range a.Hops {
		e := [2]int{h.From, h.To}
		if seen[e] {
			continue
		}
		seen[e] = true
		attr := ""
		if h.Perimeter {
			attr = " [style=dashed]"
		}
		fmt.Fprintf(&b, "  n%d -> n%d%s;\n", h.From, h.To, attr)
	}
	b.WriteString("}\n")
	return b.String()
}

// JSON serializes the analysis (hops, paths, stretch, aggregates) for
// external tooling.
func (a *Analysis) JSON() ([]byte, error) {
	type payload struct {
		Source        int                `json:"source"`
		Transmissions int                `json:"transmissions"`
		MetersTotal   float64            `json:"metersTotal"`
		MeanStride    float64            `json:"meanStride"`
		PerimeterHops int                `json:"perimeterHops"`
		BranchPoints  int                `json:"branchPoints"`
		Paths         map[string][]int   `json:"paths"`
		Stretch       map[string]float64 `json:"stretch"`
		Hops          []Hop              `json:"hops"`
	}
	p := payload{
		Source:        a.Source,
		Transmissions: a.Transmissions(),
		MetersTotal:   a.MetersTotal,
		MeanStride:    a.MeanStride,
		PerimeterHops: a.PerimeterHops,
		BranchPoints:  a.BranchPoints,
		Paths:         make(map[string][]int, len(a.Paths)),
		Stretch:       make(map[string]float64, len(a.Stretch)),
		Hops:          a.Hops,
	}
	for d, path := range a.Paths {
		p.Paths[strconv.Itoa(d)] = path
	}
	for d, s := range a.Stretch {
		p.Stretch[strconv.Itoa(d)] = s
	}
	return json.Marshal(p)
}

// Summary renders a one-paragraph human-readable digest.
func (a *Analysis) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d transmissions, %.0f m total, mean stride %.1f m\n",
		a.Transmissions(), a.MetersTotal, a.MeanStride)
	fmt.Fprintf(&b, "%d perimeter hops, %d branch points\n", a.PerimeterHops, a.BranchPoints)
	dests := make([]int, 0, len(a.Paths))
	for d := range a.Paths {
		dests = append(dests, d)
	}
	sort.Ints(dests)
	for _, d := range dests {
		fmt.Fprintf(&b, "dest %d: %d hops (stretch %.2f) via %v\n",
			d, len(a.Paths[d])-1, a.Stretch[d], a.Paths[d])
	}
	return b.String()
}
