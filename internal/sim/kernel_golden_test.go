package sim_test

// The kernel golden pins the simulator's observable output — every
// SessionMetrics field and, for single-queue runs, the transmission trace —
// over a fixed seeded matrix of fault, ARQ, churn, redundant-copy and
// accounting configurations, under both scheduling policies (single queue
// and tiled at 1 and 4 shards). Any change to the copy rules, the event
// order or the fault streams shows up as a digest mismatch. Regenerate with
//
//	go test ./internal/sim -run TestKernelGolden -update
//
// only for a deliberate, documented behavior change.

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"gmp/internal/geom"
	"gmp/internal/network"
	"gmp/internal/planar"
	"gmp/internal/routing"
	"gmp/internal/sim"
	"gmp/internal/view"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/kernel.golden")

// goldenScenario is one row of the matrix: an engine configuration plus a
// script of (protocol, start, source, destinations) sessions.
type goldenScenario struct {
	name     string
	faults   sim.FaultPlan
	arq      sim.ARQConfig
	churn    func(nw *network.Network) sim.ChurnPlan
	ledger   bool
	dynFrame bool
	sessions []goldenSession
}

type goldenSession struct {
	proto string
	start float64
	src   int
	dests []int
}

// goldenNet is a 400-node uniform deployment on a 1200 m square (four
// tiles) with the Gabriel planar substrate face routing needs.
func goldenNet(t *testing.T) (*network.Network, view.Provider) {
	t.Helper()
	nodes := network.DeployUniform(400, 1200, 1200, rand.New(rand.NewSource(20260601)))
	nw, err := network.New(nodes, 1200, 1200, 150)
	if err != nil {
		t.Fatal(err)
	}
	if nw.Tiles() < 4 {
		t.Fatalf("want a multi-tile network, got %d tiles", nw.Tiles())
	}
	return nw, view.NewOracle(nw, planar.Planarize(nw, planar.Gabriel))
}

// goldenMotion drifts every node on a slow deterministic circle, so frames
// on links near the range edge are lost once the endpoints swing apart.
func goldenMotion(nw *network.Network) sim.Motion {
	base := make([]geom.Point, nw.Len())
	for i := range base {
		base[i] = nw.Pos(i)
	}
	return func(t float64) []geom.Point {
		out := make([]geom.Point, len(base))
		for i, p := range base {
			a := 40*t + float64(i)
			out[i] = geom.Pt(p.X+8*math.Cos(a), p.Y+8*math.Sin(a))
		}
		return out
	}
}

func goldenScenarios() []goldenScenario {
	oneRetry := sim.ARQConfig{Enabled: true, MaxRetries: 1, AckBytes: 16}
	dests := func(ids ...int) []int { return ids }
	overlap := []goldenSession{
		{"GMP", 0, 0, dests(50, 120, 210, 333, 399)},
		{"LGS", 0.001, 17, dests(5, 88, 160, 240, 301, 377)},
		{"PBM", 0.0015, 222, dests(3, 44, 190, 260)},
	}
	return []goldenScenario{
		{name: "clean", sessions: overlap},
		{name: "uniform-loss", faults: sim.FaultPlan{LossRate: 0.08, Seed: 7}, sessions: overlap},
		{name: "edge-loss-arq-nack", arq: oneRetry,
			faults:   sim.FaultPlan{EdgeLoss: 0.6, Seed: 11},
			sessions: []goldenSession{{"GMP", 0, 0, dests(50, 120, 210, 333, 399)}, {"GRD", 0.0005, 300, dests(12, 99, 180)}}},
		{name: "loss-arq-nonack", arq: oneRetry,
			faults:   sim.FaultPlan{LossRate: 0.3, Seed: 13},
			sessions: []goldenSession{{"LGS", 0, 17, dests(5, 88, 160, 240, 301, 377)}, {"PBM", 0, 222, dests(3, 44, 190, 260)}}},
		{name: "crash-recover-arq", arq: sim.DefaultARQ(),
			faults: sim.FaultPlan{LossRate: 0.05, Seed: 3, Crashes: []sim.Crash{
				{Node: 119, At: 0, RecoverAt: 0.004}, {Node: 51, At: 0.002},
				{Node: 279, At: 0.001, RecoverAt: 0.0015}, {Node: 113, At: 0.003, RecoverAt: 0.03},
			}},
			sessions: overlap},
		{name: "crash-noarq",
			faults:   sim.FaultPlan{Crashes: []sim.Crash{{Node: 119, At: 0}, {Node: 279, At: 0.003, RecoverAt: 0.02}}},
			sessions: overlap},
		{name: "churn-motion", arq: sim.DefaultARQ(),
			churn: func(nw *network.Network) sim.ChurnPlan {
				return sim.ChurnPlan{
					Joins: []sim.Membership{
						{Session: 0, Node: 277, At: 0.0021}, {Session: 0, Node: 0, At: 0.003}, // source join
						{Session: 1, Node: 150, At: 0.0012}, {Session: 1, Node: 88, At: 0.002}, // already a member
						{Session: 2, Node: 310, At: 0.004}, {Session: 2, Node: 311, At: 0.5}, // fires after the run
					},
					Leaves: []sim.Membership{
						{Session: 0, Node: 399, At: 0.0025},
						{Session: 1, Node: 377, At: 0.0011}, {Session: 1, Node: 240, At: 0.0017}, // LGS anchors
						{Session: 2, Node: 310, At: 0.004},
					},
					Motion: goldenMotion(nw),
				}
			},
			sessions: overlap},
		{name: "churn-arq-loss", arq: sim.DefaultARQ(),
			faults: sim.FaultPlan{LossRate: 0.1, Seed: 21},
			churn: func(*network.Network) sim.ChurnPlan {
				return sim.ChurnPlan{
					Joins:  []sim.Membership{{Session: 0, Node: 190, At: 0.001}, {Session: 1, Node: 17, At: 0.002}},
					Leaves: []sim.Membership{{Session: 0, Node: 50, At: 0.0005}, {Session: 1, Node: 5, At: 0.003}},
				}
			},
			sessions: []goldenSession{{"GMP", 0, 0, dests(50, 120, 210, 333, 399)}, {"LGS", 0.001, 17, dests(5, 88, 160, 240, 301, 377)}}},
		{name: "redundant-ledger-dynframe", ledger: true, dynFrame: true,
			faults: sim.FaultPlan{LossRate: 0.05, Seed: 5},
			sessions: []goldenSession{
				{"MCFR", 0, 0, dests(50, 120, 210, 333, 399)},
				{"MCFR", 0.0007, 222, dests(3, 44, 190, 260)},
				{"GMP", 0.0003, 17, dests(5, 88, 160)},
			}},
		{name: "redundant-arq-churn", arq: oneRetry, ledger: true,
			faults: sim.FaultPlan{EdgeLoss: 0.4, Seed: 9, Crashes: []sim.Crash{{Node: 130, At: 0.001, RecoverAt: 0.004}}},
			churn: func(*network.Network) sim.ChurnPlan {
				return sim.ChurnPlan{
					Joins:  []sim.Membership{{Session: 0, Node: 260, At: 0.002}},
					Leaves: []sim.Membership{{Session: 0, Node: 333, At: 0.001}},
				}
			},
			sessions: []goldenSession{{"MCFR", 0, 0, dests(50, 120, 210, 333, 399)}, {"GMP", 0, 222, dests(3, 44, 190, 260)}}},
	}
}

// goldenMode is a scheduling policy: shards == 0 is the single-queue run.
type goldenMode struct {
	name   string
	shards int
}

var goldenModes = []goldenMode{{"single", 0}, {"tiled1", 1}, {"tiled4", 4}}

// runGolden renders two consecutive runs of sc on one engine under mode and
// returns the rendering with the metrics it was made from.
func runGolden(t *testing.T, nw *network.Network, prov view.Provider, sc goldenScenario, mode goldenMode) (string, []sim.SessionMetrics) {
	t.Helper()
	e := sim.NewEngine(nw, sim.DefaultRadioParams(), 100)
	e.SetViews(prov)
	if err := e.SetFaults(sc.faults); err != nil {
		t.Fatal(err)
	}
	if err := e.SetARQ(sc.arq); err != nil {
		t.Fatal(err)
	}
	if sc.churn != nil {
		if err := e.SetChurn(sc.churn(nw)); err != nil {
			t.Fatal(err)
		}
	}
	e.SetEnergyLedger(sc.ledger)
	e.SetDynamicFrames(sc.dynFrame)
	var b strings.Builder
	var all []sim.SessionMetrics
	if mode.shards == 0 {
		e.SetTracer(func(ev sim.TraceEvent) {
			if ev.Died {
				return // the golden pins transmissions
			}
			fmt.Fprintf(&b, "tx %x %d>%d h%d %v p%t\n",
				math.Float64bits(ev.Time), ev.From, ev.To, ev.Hops, ev.Dests, ev.Perimeter)
		})
	} else if err := e.SetSharding(sim.ShardConfig{Shards: mode.shards, Window: sim.Lookahead(e.Radio(), e.ARQ())}); err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 2; run++ {
		script := make([]sim.Session, len(sc.sessions))
		for i, s := range sc.sessions {
			h, err := routing.Make(s.proto, routing.Ctx{Network: nw, Lambda: 0.3, LambdaSet: true})
			if err != nil {
				t.Fatal(err)
			}
			script[i] = sim.Session{Start: s.start, Handler: h, Src: s.src, Dests: s.dests}
		}
		for i, m := range e.RunScript(script) {
			fmt.Fprintf(&b, "run %d session %d\n", run, i)
			renderMetrics(&b, m)
			all = append(all, m)
		}
	}
	return b.String(), all
}

// renderMetrics writes every SessionMetrics field deterministically: map
// keys sorted, floats as their IEEE-754 bits.
func renderMetrics(b *strings.Builder, m sim.SessionMetrics) {
	bits := math.Float64bits
	fmt.Fprintf(b, "tx=%d retx=%d acks=%d linkfail=%d invalid=%d dup=%d dests=%d spliced=%d missed=%d\n",
		m.Transmissions, m.Retransmissions, m.Acks, m.LinkFailures, m.InvalidSends,
		m.DuplicateDeliveries, m.DestCount, m.JoinsSpliced, m.JoinsMissed)
	fmt.Fprintf(b, "energy=%x start=%x drops=%v destdrops=%v\n", bits(m.EnergyJ), bits(m.StartTime),
		m.DropsByReason, m.DestDropsByReason)
	for _, d := range sortedKeys(m.Delivered) {
		fmt.Fprintf(b, "deliv %d h%d at=%x\n", d, m.Delivered[d], bits(m.DeliveredAt[d]))
	}
	for _, d := range sortedKeys(m.DeliveredAt) {
		if _, ok := m.Delivered[d]; !ok {
			fmt.Fprintf(b, "orphan-at %d %x\n", d, bits(m.DeliveredAt[d]))
		}
	}
	fmt.Fprintf(b, "ledger nil=%t\n", m.EnergyByNode == nil)
	for _, n := range sortedKeys(m.EnergyByNode) {
		fmt.Fprintf(b, "j %d %x\n", n, bits(m.EnergyByNode[n]))
	}
}

func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// TestKernelGolden compares each (scenario, mode) rendering's digest with
// testdata/kernel.golden. The tiled modes must also agree with each other
// (shard count changes wall-clock time only), and the single-queue matrix
// must actually exercise every accounting path it claims to cover.
func TestKernelGolden(t *testing.T) {
	nw, prov := goldenNet(t)
	var out strings.Builder
	out.WriteString("# scenario mode sha256(rendering)[:8] delivered/dests tx (see kernel_golden_test.go)\n")
	var cover struct {
		linkFail, exhausted, retx, linkLoss, crashed, spliced, missed, left, dup, ledger int
	}
	for _, sc := range goldenScenarios() {
		var tiled string
		for _, mode := range goldenModes {
			r, ms := runGolden(t, nw, prov, sc, mode)
			sum := sha256.Sum256([]byte(r))
			var deliv, dests, tx int
			for _, m := range ms {
				deliv += len(m.Delivered)
				dests += m.DestCount
				tx += m.Transmissions
				if mode.shards == 0 {
					cover.linkFail += m.LinkFailures
					cover.exhausted += m.DropsByReason[sim.ReasonARQExhausted]
					cover.retx += m.Retransmissions
					cover.linkLoss += m.DropsByReason[sim.ReasonLinkLoss]
					cover.crashed += m.DropsByReason[sim.ReasonSenderCrashed] + m.DropsByReason[sim.ReasonCrashedReceiver]
					cover.spliced += m.JoinsSpliced
					cover.missed += m.JoinsMissed
					cover.left += m.DestDropsByReason[sim.ReasonLeft]
					cover.dup += m.DuplicateDeliveries
					cover.ledger += len(m.EnergyByNode)
				}
			}
			fmt.Fprintf(&out, "%s %s %x %d/%d tx=%d\n", sc.name, mode.name, sum[:8], deliv, dests, tx)
			if mode.shards > 0 {
				if tiled == "" {
					tiled = r
				} else if r != tiled {
					t.Errorf("%s: %s diverged from tiled1", sc.name, mode.name)
				}
			}
		}
	}
	if c := cover; c.linkFail == 0 || c.exhausted == 0 || c.retx == 0 || c.linkLoss == 0 || c.crashed == 0 ||
		c.spliced == 0 || c.missed == 0 || c.left == 0 || c.dup == 0 || c.ledger == 0 {
		t.Errorf("matrix leaves an accounting path unexercised: %+v", c)
	}
	path := filepath.Join("testdata", "kernel.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		t.Fatalf("kernel golden mismatch:\n got:\n%s\n want:\n%s", got, want)
	}
}
