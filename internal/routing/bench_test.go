package routing

import (
	"math/rand"
	"testing"

	"gmp/internal/geom"
	"gmp/internal/network"
	"gmp/internal/planar"
	"gmp/internal/sim"
	"gmp/internal/view"
	"gmp/internal/workload"
)

// benchBed prepares a Table 1 scale network for per-task protocol benches.
func benchBed(b *testing.B) (*network.Network, *planar.Graph, *sim.Engine, []workload.Task) {
	b.Helper()
	r := rand.New(rand.NewSource(1))
	nw, err := network.New(network.DeployUniform(1000, 1000, 1000, r), 1000, 1000, 150)
	if err != nil {
		b.Fatal(err)
	}
	pg := planar.Planarize(nw, planar.Gabriel)
	en := sim.NewEngine(nw, sim.DefaultRadioParams(), 100)
	en.SetViews(view.NewOracle(nw, pg))
	tasks, err := workload.GenerateBatch(r, nw.Len(), 12, 64)
	if err != nil {
		b.Fatal(err)
	}
	return nw, pg, en, tasks
}

func benchmarkProtocol(b *testing.B, build func(*network.Network, *planar.Graph) Protocol) {
	nw, pg, en, tasks := benchBed(b)
	p := build(nw, pg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		task := tasks[i%len(tasks)]
		m := en.RunTask(p, task.Source, task.Dests)
		if m.InvalidSends != 0 {
			b.Fatal("invalid sends")
		}
	}
}

func BenchmarkTaskGMP(b *testing.B) {
	benchmarkProtocol(b, func(*network.Network, *planar.Graph) Protocol {
		return NewGMP()
	})
}

func BenchmarkTaskGMPnr(b *testing.B) {
	benchmarkProtocol(b, func(*network.Network, *planar.Graph) Protocol {
		return NewGMPnr()
	})
}

func BenchmarkTaskLGS(b *testing.B) {
	benchmarkProtocol(b, func(*network.Network, *planar.Graph) Protocol {
		return NewLGS()
	})
}

func BenchmarkTaskPBM(b *testing.B) {
	benchmarkProtocol(b, func(*network.Network, *planar.Graph) Protocol {
		return NewPBM(0.3)
	})
}

func BenchmarkTaskGRD(b *testing.B) {
	benchmarkProtocol(b, func(*network.Network, *planar.Graph) Protocol {
		return NewGRD()
	})
}

func BenchmarkTaskSMT(b *testing.B) {
	benchmarkProtocol(b, func(nw *network.Network, _ *planar.Graph) Protocol {
		return NewSMT(nw)
	})
}

// BenchmarkSingleMCFRDecision measures one bare MCFR relay decision — a
// single face-routing step of an in-flight thread, the per-hop cost every
// concurrent copy pays — invoked directly on a NodeView with no engine
// around it. The benchgate watches its allocs/op.
func BenchmarkSingleMCFRDecision(b *testing.B) {
	b.ReportAllocs()
	r := rand.New(rand.NewSource(1))
	nw, err := network.New(network.DeployUniform(1000, 1000, 1000, r), 1000, 1000, 150)
	if err != nil {
		b.Fatal(err)
	}
	pg := planar.Planarize(nw, planar.Gabriel)
	v := view.NewOracle(nw, pg).At(0)
	mcfr := NewMCFR()
	dests := []int{100, 250, 400, 550, 700, 850, 950, 50, 300, 600, 750, 900}
	locs := make([]geom.Point, len(dests))
	for i, d := range dests {
		locs[i] = nw.Pos(d)
	}
	anchor := dests[0]
	st := view.PerimeterEnter(v, nw.Pos(anchor))
	pkt := &sim.Packet{Dests: dests, Locs: locs, Anchor: anchor,
		Perimeter: true, Peri: st}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fwds := mcfr.Decide(v, pkt); len(fwds) == 0 {
			b.Fatal("no forwards")
		}
	}
}

// BenchmarkSingleGMPDecision measures one bare GMP decision core — group
// split plus next-hop selection for 12 destinations — invoked directly on a
// NodeView with no engine around it. Steady-state allocations exercise the
// pooled decision arena (tree builder, distance memo). BENCH_PR5.json gates its allocs/op
// (the CI benchgate job), beside the full-hop SingleGMPHop baseline.
func BenchmarkSingleGMPDecision(b *testing.B) {
	b.ReportAllocs()
	r := rand.New(rand.NewSource(1))
	nw, err := network.New(network.DeployUniform(1000, 1000, 1000, r), 1000, 1000, 150)
	if err != nil {
		b.Fatal(err)
	}
	pg := planar.Planarize(nw, planar.Gabriel)
	v := view.NewOracle(nw, pg).At(0)
	gmp := NewGMP()
	dests := []int{100, 250, 400, 550, 700, 850, 950, 50, 300, 600, 750, 900}
	locs := make([]geom.Point, len(dests))
	for i, d := range dests {
		locs[i] = nw.Pos(d)
	}
	pkt := &sim.Packet{Dests: dests, Locs: locs, Anchor: -1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fwds := gmp.Start(v, pkt); len(fwds) == 0 {
			b.Fatal("no forwards")
		}
	}
}
