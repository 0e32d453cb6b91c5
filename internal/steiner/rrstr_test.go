package steiner

import (
	"math/rand"
	"testing"

	"gmp/internal/geom"
)

func randDests(r *rand.Rand, n int, scale float64) []Dest {
	out := make([]Dest, n)
	for i := range out {
		out[i] = Dest{Pos: geom.Pt(r.Float64()*scale, r.Float64()*scale), Label: i}
	}
	return out
}

func basicOpts() Options { return Options{} }

func awareOpts() Options { return Options{RadioRange: 150, RadioAware: true} }

func TestBuildEmptyAndSingle(t *testing.T) {
	src := geom.Pt(0, 0)
	tr := new(Builder).Build(src, nil, basicOpts())
	if tr.NumVertices() != 1 || tr.NumEdges() != 0 {
		t.Fatalf("empty build: %d verts %d edges", tr.NumVertices(), tr.NumEdges())
	}
	tr = new(Builder).Build(src, []Dest{{Pos: geom.Pt(100, 0), Label: 9}}, basicOpts())
	if tr.NumEdges() != 1 {
		t.Fatalf("single dest: %d edges", tr.NumEdges())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	pivots := tr.Pivots()
	if len(pivots) != 1 || tr.Vertex(pivots[0]).Label != 9 {
		t.Fatalf("pivots = %v", pivots)
	}
}

func TestBuildTwoFarCloseDestsShareVirtual(t *testing.T) {
	// Two destinations far from the source and close together (§3
	// Observation 1) must share a virtual Steiner parent under basic rrSTR.
	src := geom.Pt(0, 0)
	dests := []Dest{
		{Pos: geom.Pt(900, 480), Label: 0},
		{Pos: geom.Pt(900, 520), Label: 1},
	}
	tr := new(Builder).Build(src, dests, basicOpts())
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	pivots := tr.Pivots()
	if len(pivots) != 1 {
		t.Fatalf("want a single pivot (shared subpath), got %v", pivots)
	}
	if tr.Vertex(pivots[0]).Kind != Virtual {
		t.Fatalf("pivot should be a virtual Steiner point, got %v", tr.Vertex(pivots[0]).Kind)
	}
	// The virtual point lies between the source and the pair.
	p := tr.Vertex(pivots[0]).Pos
	if p.X < 500 || p.X > 900 {
		t.Fatalf("virtual point at %v is not between source and the pair", p)
	}
}

func TestBuildPerpendicularDestsNoSharing(t *testing.T) {
	// Destinations at a right angle and equal distance gain little from
	// sharing; with a 90° separation the Fermat point of (s,u,v) still
	// exists, but for a very wide angle (>120°) the Steiner point is s and
	// the tree must use direct edges.
	src := geom.Pt(0, 0)
	dests := []Dest{
		{Pos: geom.Pt(500, 0), Label: 0},
		{Pos: geom.Pt(-500, 100), Label: 1}, // ~170 degrees apart
	}
	tr := new(Builder).Build(src, dests, basicOpts())
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tr.Pivots()) != 2 {
		t.Fatalf("wide-angle pair should not share a virtual parent: pivots = %v", tr.Pivots())
	}
	for _, v := range tr.Vertices() {
		if v.Kind == Virtual {
			t.Fatalf("no virtual vertex expected, found %v", v)
		}
	}
}

func TestBuildSpansAllDestinationsProperty(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 100; trial++ {
		n := 1 + r.Intn(25)
		src := geom.Pt(r.Float64()*1000, r.Float64()*1000)
		dests := randDests(r, n, 1000)
		for _, opts := range []Options{basicOpts(), awareOpts()} {
			tr := new(Builder).Build(src, dests, opts)
			if err := tr.Validate(); err != nil {
				t.Fatalf("trial %d opts %+v: %v", trial, opts, err)
			}
			terms := tr.TerminalIDs()
			if len(terms) != n {
				t.Fatalf("trial %d: %d terminals, want %d", trial, len(terms), n)
			}
			// Every label must appear exactly once.
			seen := make(map[int]bool)
			for _, id := range terms {
				l := tr.Vertex(id).Label
				if seen[l] {
					t.Fatalf("duplicate label %d", l)
				}
				seen[l] = true
			}
		}
	}
}

func TestBuildBasicNeverWorseThanStar(t *testing.T) {
	// Derived invariant: each rrSTR merge step strictly improves (or keeps)
	// the total cost relative to connecting every destination directly to
	// the source, so the final tree is never longer than the star.
	r := rand.New(rand.NewSource(37))
	for trial := 0; trial < 200; trial++ {
		n := 2 + r.Intn(20)
		src := geom.Pt(r.Float64()*1000, r.Float64()*1000)
		dests := randDests(r, n, 1000)
		tr := new(Builder).Build(src, dests, basicOpts())
		var star float64
		for _, d := range dests {
			star += src.Dist(d.Pos)
		}
		if got := tr.TotalLength(); got > star+1e-6 {
			t.Fatalf("trial %d: rrSTR length %v exceeds star %v", trial, got, star)
		}
	}
}

func TestBuildBeatsMSTOnForkConfigurations(t *testing.T) {
	// On a symmetric fork — two destinations far from the source at a
	// moderate angle — the Fermat point is strictly shorter than any MST,
	// which is restricted to the three terminal locations. This is the §1.1
	// claim that LGS "over-constrains" the trees it can generate.
	src := geom.Pt(0, 0)
	for _, halfAngle := range []float64{0.2, 0.35, 0.5} {
		u := geom.Pt(800, 0).Rotate(halfAngle)
		v := geom.Pt(800, 0).Rotate(-halfAngle)
		dests := []Dest{{Pos: u, Label: 0}, {Pos: v, Label: 1}}
		rrLen := new(Builder).Build(src, dests, basicOpts()).TotalLength()
		mstLen := MSTLength([]geom.Point{src, u, v})
		if rrLen >= mstLen-1e-6 {
			t.Fatalf("halfAngle %v: rrSTR %v not shorter than MST %v", halfAngle, rrLen, mstLen)
		}
	}
}

func TestBuildBasicWithinMSTBand(t *testing.T) {
	// Greedy hierarchical pairing does not dominate the MST's geometric
	// length on scattered points (the protocol's advantage is in routing
	// hops, not raw tree length), but it must stay within a modest band of
	// it on average.
	r := rand.New(rand.NewSource(41))
	var rrTotal, mstTotal float64
	for trial := 0; trial < 200; trial++ {
		n := 3 + r.Intn(15)
		src := geom.Pt(r.Float64()*1000, r.Float64()*1000)
		dests := randDests(r, n, 1000)
		rrTotal += new(Builder).Build(src, dests, basicOpts()).TotalLength()
		pts := make([]geom.Point, 0, n+1)
		pts = append(pts, src)
		for _, d := range dests {
			pts = append(pts, d.Pos)
		}
		mstTotal += MSTLength(pts)
	}
	if rrTotal > mstTotal*1.25 {
		t.Fatalf("mean rrSTR length %v is more than 25%% above mean MST length %v",
			rrTotal/200, mstTotal/200)
	}
}

func TestBuildRadioAwareSuppressesNearbyVirtuals(t *testing.T) {
	// Both destinations within radio range: one hop each; no virtual vertex
	// may be created (§3.3 case 1).
	src := geom.Pt(0, 0)
	dests := []Dest{
		{Pos: geom.Pt(100, 10), Label: 0},
		{Pos: geom.Pt(100, -10), Label: 1},
	}
	tr := new(Builder).Build(src, dests, awareOpts())
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, v := range tr.Vertices() {
		if v.Kind == Virtual {
			t.Fatalf("radio-aware build created virtual %v for in-range pair", v)
		}
	}
	if len(tr.Pivots()) != 2 {
		t.Fatalf("pivots = %v, want two direct children", tr.Pivots())
	}
}

func TestBuildRadioAwareKeepsBeneficialVirtuals(t *testing.T) {
	// Far-away close pair: the virtual point saves more than the extra hop,
	// so it must survive radio-range awareness (§3.3 case 2, Figure 5a).
	src := geom.Pt(0, 0)
	dests := []Dest{
		{Pos: geom.Pt(800, 450), Label: 0},
		{Pos: geom.Pt(800, 550), Label: 1},
	}
	tr := new(Builder).Build(src, dests, awareOpts())
	virtuals := 0
	for _, v := range tr.Vertices() {
		if v.Kind == Virtual {
			virtuals++
		}
	}
	if virtuals != 1 {
		t.Fatalf("want exactly one virtual vertex, got %d\n%s", virtuals, tr)
	}
}

func TestBuildRadioAwareOneInRange(t *testing.T) {
	// u within range, v far beyond and roughly behind u: u serves as the
	// Steiner point and the tree contains edge (u, v) (§3.3 case 3,
	// Figure 6a).
	src := geom.Pt(0, 0)
	u := Dest{Pos: geom.Pt(140, 0), Label: 0}
	v := Dest{Pos: geom.Pt(600, 30), Label: 1}
	tr := new(Builder).Build(src, []Dest{u, v}, awareOpts())
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Expect chain source -> u -> v.
	pivots := tr.Pivots()
	if len(pivots) != 1 {
		t.Fatalf("pivots = %v, want 1 (chain through u)", pivots)
	}
	if got := tr.Vertex(pivots[0]).Label; got != 0 {
		t.Fatalf("pivot label = %d, want 0 (u)", got)
	}
	kids := tr.Children(pivots[0], 0)
	if len(kids) != 1 || tr.Vertex(kids[0]).Label != 1 {
		t.Fatalf("children of u = %v, want [v]", kids)
	}
}

func TestBuildProseVariantAttachesDirectly(t *testing.T) {
	// With the §3.3 prose variant, a non-beneficial one-in-range pair is
	// attached directly to the source and both nodes deactivate; with the
	// Figure 3 variant the pair deactivates but the nodes stay active and
	// end up as direct children anyway (no other partners here). Both must
	// produce valid trees; the prose variant must produce no virtuals.
	src := geom.Pt(0, 0)
	dests := []Dest{
		{Pos: geom.Pt(100, 0), Label: 0},
		{Pos: geom.Pt(0, 400), Label: 1},
	}
	for _, prose := range []bool{false, true} {
		opts := awareOpts()
		opts.OneInRangeProse = prose
		tr := new(Builder).Build(src, dests, opts)
		if err := tr.Validate(); err != nil {
			t.Fatalf("prose=%v: %v", prose, err)
		}
		if len(tr.Pivots()) != 2 {
			t.Fatalf("prose=%v: pivots = %v, want 2 direct children", prose, tr.Pivots())
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	src := geom.Pt(500, 500)
	dests := randDests(r, 12, 1000)
	a := new(Builder).Build(src, dests, awareOpts())
	b := new(Builder).Build(src, dests, awareOpts())
	if a.String() != b.String() {
		t.Fatal("Build is not deterministic for identical input")
	}
}

func TestBuildCoincidentDestinations(t *testing.T) {
	src := geom.Pt(0, 0)
	dests := []Dest{
		{Pos: geom.Pt(300, 300), Label: 0},
		{Pos: geom.Pt(300, 300), Label: 1}, // duplicate position
		{Pos: geom.Pt(0, 0), Label: 2},     // collocated with source
	}
	for _, opts := range []Options{basicOpts(), awareOpts()} {
		tr := new(Builder).Build(src, dests, opts)
		if err := tr.Validate(); err != nil {
			t.Fatalf("opts %+v: %v", opts, err)
		}
		if got := len(tr.TerminalIDs()); got != 3 {
			t.Fatalf("terminals = %d", got)
		}
	}
}

func TestBuildManyDestinationsStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	r := rand.New(rand.NewSource(47))
	src := geom.Pt(500, 500)
	dests := randDests(r, 200, 1000)
	tr := new(Builder).Build(src, dests, awareOpts())
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(tr.TerminalIDs()); got != 200 {
		t.Fatalf("terminals = %d", got)
	}
}
