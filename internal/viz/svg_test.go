package viz

import (
	"math/rand"
	"strings"
	"testing"

	"gmp/internal/geom"
	"gmp/internal/network"
	"gmp/internal/planar"
	"gmp/internal/routing"
	"gmp/internal/sim"
	"gmp/internal/steiner"
	"gmp/internal/trace"
	"gmp/internal/view"
)

func testNetwork(t *testing.T) *network.Network {
	t.Helper()
	r := rand.New(rand.NewSource(1))
	nw, err := network.New(network.DeployUniform(100, 500, 500, r), 500, 500, 120)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestCanvasPrimitives(t *testing.T) {
	c := NewCanvas(100, 100, 1)
	c.Line(geom.Pt(0, 0), geom.Pt(100, 100), Style{Stroke: "#123456", StrokeWidth: 2, Dashed: true, Opacity: 0.5})
	c.Circle(geom.Pt(50, 50), 3, Style{Fill: "#abcdef"})
	c.Text(geom.Pt(10, 10), "hello")
	out := c.String()
	for _, want := range []string{
		"<svg", "</svg>", "<line", "stroke-dasharray", `stroke="#123456"`,
		`fill="#abcdef"`, ">hello</text>", `opacity="0.50"`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("SVG missing %q:\n%s", want, out)
		}
	}
}

func TestCanvasCoordinateFlip(t *testing.T) {
	// World y grows up; SVG y grows down. A point at world (0, worldH) must
	// land at the top margin.
	c := NewCanvas(100, 100, 1)
	c.Circle(geom.Pt(0, 100), 1, Style{Fill: "#000"})
	out := c.String()
	if !strings.Contains(out, `cy="12.0"`) {
		t.Fatalf("top-left mapping broken:\n%s", out)
	}
}

func TestCanvasDefaultScale(t *testing.T) {
	c := NewCanvas(1000, 1000, 0)
	if c.scale != 0.6 {
		t.Fatalf("default scale = %v", c.scale)
	}
}

func TestDrawNetworkLayers(t *testing.T) {
	nw := testNetwork(t)
	pg := planar.Planarize(nw, planar.Gabriel)
	c := NewCanvas(nw.Width(), nw.Height(), 0.5)
	c.DrawNodes(nw)
	c.DrawLinks(nw)
	c.DrawPlanar(pg)
	out := c.String()
	if strings.Count(out, "<circle") != nw.Len() {
		t.Fatalf("expected %d node dots", nw.Len())
	}
	if strings.Count(out, "<line") == 0 {
		t.Fatal("no edges drawn")
	}
}

func TestDrawTreeKindsColored(t *testing.T) {
	tr := new(steiner.Builder).Build(geom.Pt(0, 0), []steiner.Dest{
		{Pos: geom.Pt(400, 180), Label: 0},
		{Pos: geom.Pt(400, 220), Label: 1},
	}, steiner.Options{})
	out := RenderTree(500, 500, tr)
	for _, want := range []string{"#d62728", "#1f77b4", "#ff9900"} {
		if !strings.Contains(out, want) {
			t.Fatalf("tree rendering missing color %s:\n%s", want, out)
		}
	}
}

func TestDrawRegionShapes(t *testing.T) {
	c := NewCanvas(1000, 1000, 0.5)
	c.DrawRegion(geom.Disk{C: geom.Pt(500, 500), R: 100})
	c.DrawRegion(geom.NewRect(geom.Pt(100, 100), geom.Pt(200, 200)))
	c.DrawRegion(geom.Polygon{Vertices: []geom.Point{
		geom.Pt(700, 700), geom.Pt(900, 700), geom.Pt(800, 900),
	}})
	out := c.String()
	if strings.Count(out, `fill="none"`) != 3 {
		t.Fatalf("expected 3 region outlines:\n%s", out)
	}
	if !strings.Contains(out, "Z\"") {
		t.Fatal("closed paths missing")
	}
	// Empty polygon is a no-op.
	before := len(c.String())
	c.DrawRegion(geom.Polygon{})
	if len(c.String()) != before {
		t.Fatal("empty polygon should draw nothing")
	}
}

func TestRenderTaskWithPerimeter(t *testing.T) {
	nw := testNetwork(t)
	pg := planar.Planarize(nw, planar.Gabriel)
	en := sim.NewEngine(nw, sim.DefaultRadioParams(), 100)
	en.SetViews(view.NewOracle(nw, pg))
	var c trace.Collector
	en.SetTracer(c.Record)
	en.RunTask(routing.NewGMP(), 0, []int{50, 70})
	en.SetTracer(nil)
	out := RenderTask(nw, pg, c.Events(), 0, []int{50, 70})
	for _, want := range []string{"<svg", "s0", "d50", "d70"} {
		if !strings.Contains(out, want) {
			t.Fatalf("task rendering missing %q", want)
		}
	}
	if len(c.Events()) > 0 && !strings.Contains(out, "#2ca02c") {
		t.Fatal("greedy trace color missing")
	}
}
