package routing

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"gmp/internal/geom"
	"gmp/internal/network"
	"gmp/internal/planar"
	"gmp/internal/sim"
	"gmp/internal/testutil"
	"gmp/internal/view"
)

// arenaDecision is one recorded GMP decision: a variant, the deciding
// node's view and the packet it decides on.
type arenaDecision struct {
	g   *GMP
	v   view.NodeView
	pkt *sim.Packet
}

// TestArenaReuseMatchesFreshArena is the differential oracle for pooled
// decision arenas. It records the decisions of real multicast walks — K from
// 1 to 120, all four GMP grouping variants, perimeter-mode packets, and
// relays whose views mask a dead neighbor — then replays them in shuffled
// order on one reused arena. Every result must deep-equal the same decision
// made on a fresh arena: an arena may only ever hold memoized, reset-before-
// use working memory. A last phase replays the stream through the public
// Decide from four goroutines at once, so the pool itself is shared.
func TestArenaReuseMatchesFreshArena(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	stream := arenaReuseCorpus(t, r)

	var perimeter, masked, big int
	for _, d := range stream {
		if d.pkt.Perimeter {
			perimeter++
		}
		if _, ok := d.v.(*view.Masked); ok {
			masked++
		}
		if len(d.pkt.Dests) == 120 {
			big++
		}
	}
	if perimeter == 0 || masked == 0 || big == 0 {
		t.Fatalf("stream misses a case: %d perimeter, %d masked, %d K=120 decisions of %d",
			perimeter, masked, big, len(stream))
	}

	r.Shuffle(len(stream), func(i, j int) { stream[i], stream[j] = stream[j], stream[i] })
	shared := new(arena)
	want := make([][]sim.Forward, len(stream))
	for i, d := range stream {
		got := d.g.decide(shared, d.v, d.pkt)
		want[i] = d.g.decide(new(arena), d.v, d.pkt)
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("decision %d (%s at node %d, %d dests, perimeter=%v): reused arena diverges from a fresh one:\n%s\nvs\n%s",
				i, d.g.Name(), d.v.Self(), len(d.pkt.Dests), d.pkt.Perimeter, forwardsString(got), forwardsString(want[i]))
		}
	}

	// Every view's lazy caches are warm now, so concurrent decisions only
	// share the arena pool.
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(stream); i += workers {
				d := stream[i]
				if got := d.g.Decide(d.v, d.pkt); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("decision %d (%s at node %d): pooled arena under concurrency diverges from a fresh one",
						i, d.g.Name(), d.v.Self())
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// arenaReuseCorpus records the decision stream of
// TestArenaReuseMatchesFreshArena, drawing from r. A sparse field (100 m
// range, mean degree ~12) leaves voids, so walks enter perimeter mode.
func arenaReuseCorpus(tb testing.TB, r *rand.Rand) []arenaDecision {
	tb.Helper()
	nw, err := network.New(network.DeployUniform(400, 1000, 1000, r), 1000, 1000, 100)
	if err != nil {
		tb.Fatal(err)
	}
	views := view.NewOracle(nw, planar.Planarize(nw, planar.Gabriel))
	return recordDecisions(r, nw, views, gmpVariants(), []int{1, 2, 5, 12, 25, 60, 120}, 120, true)
}

// gmpVariants returns the four GMP grouping variants.
func gmpVariants() []*GMP {
	return []*GMP{
		NewGMP(),
		NewGMPnr(),
		NewGMPWithOptions(GMPOptions{MSTGrouping: true}, "GMPmst"),
		NewGMPWithOptions(GMPOptions{SteinerizedGrouping: true}, "GMPsmst"),
	}
}

// recordDecisions records the decisions of real multicast walks: for every
// variant and every K one task drawn from r, expanded breadth-first from its
// source, up to perTask decisions. With mask set, about a third of the
// relays get a view that masks one random neighbor, as after an ARQ
// give-up.
func recordDecisions(r *rand.Rand, nw *network.Network, views view.Provider, variants []*GMP, ks []int, perTask int, mask bool) []arenaDecision {
	var stream []arenaDecision
	for _, g := range variants {
		for _, k := range ks {
			src, dests := pickTask(r, nw.Len(), k)
			locs := make([]geom.Point, len(dests))
			for i, d := range dests {
				locs[i] = nw.Pos(d)
			}
			frontier := []arenaDecision{{g, views.At(src), &sim.Packet{Dests: dests, Locs: locs, Anchor: -1}}}
			recorded := 0
			for len(frontier) > 0 && recorded < perTask {
				var next []arenaDecision
				for _, d := range frontier {
					if recorded == perTask {
						break
					}
					stream = append(stream, d)
					recorded++
					for _, f := range g.decide(new(arena), d.v, d.pkt) {
						if f.To < 0 {
							continue
						}
						pkt := f.Pkt.Clone()
						pkt.Hops++
						if pkt.Strip(f.To); len(pkt.Dests) == 0 {
							continue
						}
						v := views.At(f.To)
						if nbrs := v.Neighbors(); mask && len(nbrs) > 1 && r.Intn(3) == 0 {
							v = view.NewMasked(v, map[int]bool{nbrs[r.Intn(len(nbrs))]: true})
						}
						next = append(next, arenaDecision{g, v, pkt})
					}
				}
				frontier = next
			}
		}
	}
	return stream
}

// forwardsString renders a forward list by value for failure messages.
func forwardsString(fwds []sim.Forward) string {
	var b strings.Builder
	for _, f := range fwds {
		fmt.Fprintf(&b, "{To:%d %+v} ", f.To, *f.Pkt)
	}
	return b.String()
}

// TestDecisionMemoryDoesNotGrowWithNodes guards the stateless-protocol
// property in memory terms: a K=120 decision at each of 200 nodes must leave
// no per-node working memory behind. The rrSTR arena of one K=120 build is
// several hundred KB, so per-node arenas would retain tens of MB here; the
// one pool retains about one arena per running goroutine.
func TestDecisionMemoryDoesNotGrowWithNodes(t *testing.T) {
	testutil.SkipIfRace(t)
	r := rand.New(rand.NewSource(5))
	nw, err := network.New(network.DeployUniform(600, 1000, 1000, r), 1000, 1000, 150)
	if err != nil {
		t.Fatal(err)
	}
	views := view.NewOracle(nw, planar.Planarize(nw, planar.Gabriel))
	perm := r.Perm(nw.Len())
	dests, sources := perm[:120], perm[120:320]
	locs := make([]geom.Point, len(dests))
	for i, d := range dests {
		locs[i] = nw.Pos(d)
	}
	pkt := &sim.Packet{Dests: dests, Locs: locs, Anchor: -1}
	g := NewGMP()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, src := range sources {
		if fwds := g.Start(views.At(src), pkt); len(fwds) == 0 {
			t.Fatalf("node %d: no forwards", src)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(views) // a live provider, as in an engine or decider
	const limit = 8 << 20
	if growth := int64(after.HeapAlloc) - int64(before.HeapAlloc); growth > limit {
		t.Fatalf("200 K=120 decisions retained %.1f MB of heap, limit %d MB",
			float64(growth)/(1<<20), limit>>20)
	}
}
