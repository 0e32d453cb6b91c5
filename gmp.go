package gmp

import (
	"fmt"
	"math/rand"

	"gmp/internal/geom"
	"gmp/internal/groups"
	"gmp/internal/network"
	"gmp/internal/planar"
	"gmp/internal/routing"
	"gmp/internal/sim"
	"gmp/internal/steiner"
	"gmp/internal/trace"
	"gmp/internal/view"
	"gmp/internal/viz"
)

// Re-exported core types. Aliases keep the internal packages as the single
// source of truth while giving users one import.
type (
	// Point is a location in the Euclidean plane (meters).
	Point = geom.Point
	// Node is a deployed sensor node.
	Node = network.Node
	// Network is an immutable deployed sensor field.
	Network = network.Network
	// SteinerTree is a multicast tree produced by rrSTR or the MST builder.
	SteinerTree = steiner.Tree
	// SteinerOptions configures rrSTR (radio-range awareness et al.).
	SteinerOptions = steiner.Options
	// SteinerBuilder is a reusable tree-construction arena: repeated builds
	// on one builder are allocation-free in steady state. Not safe for
	// concurrent use; the returned tree is valid until the next build.
	SteinerBuilder = steiner.Builder
	// SteinerDest is one destination record (position plus caller label)
	// handed to a SteinerBuilder.
	SteinerDest = steiner.Dest
	// Protocol is a runnable multicast routing protocol.
	Protocol = routing.Protocol
	// Result carries one task's measured metrics.
	Result = sim.TaskMetrics
	// RadioParams is the physical-layer model (Table 1 defaults).
	RadioParams = sim.RadioParams
	// TraceEvent describes one observed transmission.
	TraceEvent = sim.TraceEvent
	// FaultPlan describes injected link loss and node crashes (see
	// WithFaults). The zero plan is the ideal collision-free MAC.
	FaultPlan = sim.FaultPlan
	// NodeCrash schedules one node's radio failure inside a FaultPlan.
	NodeCrash = sim.Crash
	// ARQConfig configures hop-by-hop acknowledged delivery (see WithARQ).
	ARQConfig = sim.ARQConfig
	// DropReason classifies why a packet copy was terminated; it indexes
	// Result's DropsByReason and DestDropsByReason ledgers.
	DropReason = sim.DropReason
	// PlanarKind selects the perimeter-mode planarization rule.
	PlanarKind = planar.Kind
	// Region is a geocast target area (Disk, Rect, Polygon).
	Region = geom.Region
	// Disk is a circular geocast region.
	Disk = geom.Disk
	// Rect is an axis-aligned rectangular geocast region.
	Rect = geom.Rect
	// Polygon is a simple-polygon geocast region.
	Polygon = geom.Polygon
)

// Drop reasons, re-exported so callers can index Result's per-reason ledgers
// (DropsByReason, DestDropsByReason). See the sim package for the exact
// billing rules behind each reason.
const (
	ReasonHopBudget       = sim.ReasonHopBudget
	ReasonProtocol        = sim.ReasonProtocol
	ReasonStranded        = sim.ReasonStranded
	ReasonWatchdog        = sim.ReasonWatchdog
	ReasonLinkLoss        = sim.ReasonLinkLoss
	ReasonCrashedReceiver = sim.ReasonCrashedReceiver
	ReasonSenderCrashed   = sim.ReasonSenderCrashed
	ReasonARQExhausted    = sim.ReasonARQExhausted
	ReasonInvalidSend     = sim.ReasonInvalidSend
	NumDropReasons        = sim.NumDropReasons
)

// NewRect normalizes two arbitrary corners into a Rect region.
func NewRect(a, b Point) Rect { return geom.NewRect(a, b) }

// ConvexHull returns the convex hull of pts in counter-clockwise order.
func ConvexHull(pts []Point) []Point { return geom.ConvexHull(pts) }

// HullRegion returns a polygon region covering the convex hull of pts grown
// outward by margin meters — "the area these nodes occupy", for geocasting.
func HullRegion(pts []Point, margin float64) Polygon { return geom.HullRegion(pts, margin) }

// Planarization rules.
const (
	// Gabriel is the Gabriel-graph rule (GPSR default).
	Gabriel = planar.Gabriel
	// RelativeNeighborhood is the sparser RNG rule.
	RelativeNeighborhood = planar.RelativeNeighborhood
)

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return geom.Pt(x, y) }

// NewNetwork builds a sensor network over nodes in a width×height region
// with the given radio range.
func NewNetwork(nodes []Node, width, height, radioRange float64) (*Network, error) {
	return network.New(nodes, width, height, radioRange)
}

// DeployUniform places n nodes uniformly at random (the paper's deployment).
func DeployUniform(n int, width, height float64, r *rand.Rand) []Node {
	return network.DeployUniform(n, width, height, r)
}

// NodesFromPoints wraps explicit coordinates as nodes with dense IDs.
func NodesFromPoints(pts []Point) []Node { return network.FromPoints(pts) }

// BuildSteinerTree runs rrSTR from source over dests; dest labels are their
// indices in the slice. Zero opts give the basic (GMPnr) variant; set
// RadioAware and RadioRange for the full §3.3 heuristic.
func BuildSteinerTree(source Point, dests []Point, opts SteinerOptions) *SteinerTree {
	ds := make([]steiner.Dest, len(dests))
	for i, p := range dests {
		ds[i] = steiner.Dest{Pos: p, Label: i}
	}
	return new(steiner.Builder).Build(source, ds, opts)
}

// ReductionRatio computes the paper's §3.1 pair-selection measure.
func ReductionRatio(source, u, v Point) float64 { return steiner.ReductionRatio(source, u, v) }

// SteinerPoint returns the exact Euclidean Steiner (Fermat) point of three
// points.
func SteinerPoint(a, b, c Point) Point { return geom.SteinerPoint(a, b, c) }

// DefaultRadioParams returns the paper's Table 1 physical-layer model.
func DefaultRadioParams() RadioParams { return sim.DefaultRadioParams() }

// System bundles a network with its planarized graph and a simulation
// engine, and constructs protocols over them. Create one per network with
// NewSystem; run tasks sequentially on it (clone for concurrent use).
type System struct {
	nw      *network.Network
	pg      *planar.Graph
	en      *sim.Engine
	maxHops int
}

// SystemOption customizes NewSystem.
type SystemOption func(*systemConfig)

type systemConfig struct {
	radio   RadioParams
	maxHops int
	kind    planar.Kind
	faults  FaultPlan
	arq     ARQConfig
}

// WithRadio overrides the radio/energy parameters.
func WithRadio(p RadioParams) SystemOption {
	return func(c *systemConfig) { c.radio = p }
}

// WithMaxHops sets the per-packet hop budget (0 = unlimited; the paper's
// evaluation uses 100). Leaving the budget unlimited lets perimeter-mode
// packets circulate indefinitely on unreachable targets, so keep a budget
// for untrusted workloads. Negative budgets are a programming error and
// panic rather than silently meaning "unlimited".
func WithMaxHops(n int) SystemOption {
	if n < 0 {
		panic(fmt.Sprintf("gmp: WithMaxHops(%d): negative hop budget (use 0 for unlimited)", n))
	}
	return func(c *systemConfig) { c.maxHops = n }
}

// WithFaults injects a fault plan — per-link packet loss (uniform and/or
// distance-dependent) and scheduled node crashes — into the system's
// simulation engine. The plan's RNG is seeded deterministically, so runs
// stay reproducible. The zero plan is a strict no-op (the ideal MAC).
// Invalid plans (loss probabilities outside [0,1], crashes of unknown
// nodes) panic at NewSystem.
func WithFaults(p FaultPlan) SystemOption {
	return func(c *systemConfig) { c.faults = p }
}

// WithARQ enables hop-by-hop acknowledged delivery: receivers ACK every
// data frame (costing airtime and energy) and senders retransmit lost
// frames with exponential backoff up to cfg.MaxRetries before giving up.
// Use DefaultARQ() for the standard configuration. Invalid configurations
// panic at NewSystem.
func WithARQ(cfg ARQConfig) SystemOption {
	return func(c *systemConfig) { c.arq = cfg }
}

// DefaultARQ returns the standard ARQ configuration (3 retries, 16-byte
// ACKs, auto timeout, exponential backoff ×2).
func DefaultARQ() ARQConfig { return sim.DefaultARQ() }

// WithPlanarizer selects Gabriel (default) or RelativeNeighborhood for
// perimeter routing.
func WithPlanarizer(k PlanarKind) SystemOption {
	return func(c *systemConfig) { c.kind = k }
}

// NewSystem prepares a simulation system over nw.
func NewSystem(nw *Network, opts ...SystemOption) *System {
	cfg := systemConfig{
		radio:   sim.DefaultRadioParams(),
		maxHops: 100,
		kind:    planar.Gabriel,
	}
	for _, o := range opts {
		o(&cfg)
	}
	cfg.radio.RangeM = nw.Range()
	en := sim.NewEngine(nw, cfg.radio, cfg.maxHops)
	if err := en.SetFaults(cfg.faults); err != nil {
		panic("gmp: WithFaults: " + err.Error())
	}
	if err := en.SetARQ(cfg.arq); err != nil {
		panic("gmp: WithARQ: " + err.Error())
	}
	pg := planar.Planarize(nw, cfg.kind)
	en.SetViews(view.NewOracle(nw, pg))
	return &System{
		nw:      nw,
		pg:      pg,
		en:      en,
		maxHops: cfg.maxHops,
	}
}

// Network returns the system's network.
func (s *System) Network() *Network { return s.nw }

// GMP returns the paper's protocol (radio-range aware).
func (s *System) GMP() Protocol { return routing.NewGMP() }

// GMPnr returns GMP without radio-range awareness (ablation).
func (s *System) GMPnr() Protocol { return routing.NewGMPnr() }

// LGS returns the location-guided Steiner (MST) baseline.
func (s *System) LGS() Protocol { return routing.NewLGS() }

// LGK returns the location-guided k-ary tree baseline.
func (s *System) LGK(k int) Protocol { return routing.NewLGK(k) }

// PBM returns the position-based multicast baseline with trade-off λ.
func (s *System) PBM(lambda float64) Protocol { return routing.NewPBM(lambda) }

// GRD returns the per-destination greedy unicast baseline.
func (s *System) GRD() Protocol { return routing.NewGRD() }

// SMT returns the centralized KMB source-routing baseline.
func (s *System) SMT() Protocol { return routing.NewSMT(s.nw) }

// Multicast routes one message from src to dests under p and returns the
// task's metrics.
func (s *System) Multicast(p Protocol, src int, dests []int) Result {
	return s.en.RunTask(p, src, dests)
}

// ScriptSession describes one session of a concurrent multicast script.
type ScriptSession = sim.Session

// ScriptResult carries a session's metrics including delivery latencies.
type ScriptResult = sim.SessionMetrics

// RunScript simulates overlapping multicast sessions on the shared medium;
// half-duplex senders serialize their frames, so latency reflects load.
// Construct a fresh protocol per session — sessions must not share stateful
// handlers.
func (s *System) RunScript(sessions []ScriptSession) []ScriptResult {
	return s.en.RunScript(sessions)
}

// SetDynamicFrames switches airtime and energy accounting from the fixed
// Table 1 message size to each packet's actual wire-format size (payload +
// header). See the A-5 ablation in DESIGN.md.
func (s *System) SetDynamicFrames(on bool) { s.en.SetDynamicFrames(on) }

// Trace is Multicast plus a transcript of every transmission, for
// debugging and the gmptrace CLI.
func (s *System) Trace(p Protocol, src int, dests []int) (Result, []TraceEvent) {
	var c trace.Collector
	s.en.SetTracer(c.Record)
	defer s.en.SetTracer(nil)
	res := s.en.RunTask(p, src, dests)
	return res, c.Events()
}

// RouteAnalysis is the reconstructed digest of one traced task (paths,
// stretch factors, branch points, perimeter usage).
type RouteAnalysis = trace.Analysis

// Analyze runs a traced multicast and digests its forwarding behavior.
func (s *System) Analyze(p Protocol, src int, dests []int) (*RouteAnalysis, Result, error) {
	res, events := s.Trace(p, src, dests)
	a, err := trace.Analyze(s.nw, src, events, res.Delivered)
	if err != nil {
		return nil, res, err
	}
	return a, res, nil
}

// RenderSVG draws a traced task over the network and its planarized graph.
func (s *System) RenderSVG(events []TraceEvent, src int, dests []int) string {
	return viz.RenderTask(s.nw, s.pg, events, src, dests)
}

// Geocast returns a protocol delivering to every node within radius of
// center; pair it with GeocastDests for delivery accounting.
func (s *System) Geocast(center Point, radius float64) Protocol {
	return routing.NewGeocast(center, radius)
}

// GeocastDests returns the IDs of the nodes inside the given disk — the
// destination set to pass to Multicast alongside the Geocast protocol.
func (s *System) GeocastDests(center Point, radius float64) []int {
	return network.NodesInDisk(s.nw, center, radius)
}

// GeocastRegion returns a protocol delivering to every node inside an
// arbitrary region.
func (s *System) GeocastRegion(region Region) Protocol {
	return routing.NewGeocastRegion(region)
}

// GeocastRegionDests returns the IDs of the nodes inside region.
func (s *System) GeocastRegionDests(region Region) []int {
	return network.NodesInRegion(s.nw, region)
}

// GroupService is the GHT-style distributed group-membership service.
type GroupService = groups.Service

// Groups creates a membership service bound to this system's network, with
// the system's hop budget for control messages. A system with an unlimited
// data-plane budget (WithMaxHops(0)) keeps the service's default control
// budget, which must stay finite.
func (s *System) Groups() *GroupService {
	if s.maxHops <= 0 {
		return groups.New(s.nw, s.pg)
	}
	return groups.New(s.nw, s.pg, groups.WithMaxHops(s.maxHops))
}

// MulticastGroup resolves a group's members on behalf of src (costing
// control messages on svc) and multicasts to them with p.
func (s *System) MulticastGroup(svc *GroupService, p Protocol, src int, group string) (Result, error) {
	members, err := svc.Members(src, group)
	if err != nil {
		return Result{}, err
	}
	return s.Multicast(p, src, members), nil
}
