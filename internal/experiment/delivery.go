package experiment

import (
	"context"
	"fmt"
	"reflect"

	"gmp/internal/geom"
	"gmp/internal/network"
	"gmp/internal/planar"
	"gmp/internal/routing"
	"gmp/internal/sim"
	"gmp/internal/view"
	"gmp/internal/workload"
)

// This file is the delivery-guarantee campaign (E-X12): adversarial
// topologies — a deep concave void, a comb of alternating wall teeth, and an
// Archimedean spiral — where greedy forwarding stalls and the recovery walk
// must recede from the destination for longer than any bounded perimeter
// watchdog tolerates. GMP's perimeter fallback (watchdog armed, as every
// deployed view runs it) gives up with ReasonWatchdog; MCFR's concurrent
// face routing needs no watchdog and, on a connected planarized substrate,
// delivers every destination. Each arm pins the task source and the first
// destination to the topology's trap axis so every task actually crosses the
// obstacle; the remaining destinations are drawn from the source's connected
// component (the delivery guarantee is stated for connected graphs). Every
// task is audited (sim.AuditTask) and every arm is re-run from scratch and
// must reproduce its metrics exactly, as in the chaos and churn campaigns.

// Topology arm names accepted by DeliveryConfig.Topologies.
const (
	TopoVoid   = "void"
	TopoComb   = "comb"
	TopoSpiral = "spiral"
)

// AllDeliveryTopologies lists the campaign's adversarial topologies.
func AllDeliveryTopologies() []string { return []string{TopoVoid, TopoComb, TopoSpiral} }

// DeliveryConfig parameterizes the delivery-guarantee campaign.
type DeliveryConfig struct {
	// Nodes deployed per topology arm (rejection-sampled around the
	// obstacle, so free-space density exceeds Nodes/(Width·Height)).
	Nodes int
	// Width and Height of the deployment region in meters.
	Width, Height float64
	// RadioRange in meters. The obstacles are sized relative to it: walls
	// thicker than the range, corridors comfortably wider.
	RadioRange float64
	// Radio supplies the remaining radio parameters.
	Radio sim.RadioParams
	// Planarizer selects the perimeter substrate.
	Planarizer planar.Kind
	// MaxHops is the per-packet hop budget. Face walks along the obstacle
	// walls are long by construction; budget accordingly (several hundred).
	MaxHops int
	// TasksPerArm is the task batch size per (topology × protocol) arm.
	TasksPerArm int
	// K destinations per task (the pinned trap destination plus K-1 random
	// ones).
	K int
	// Topologies are the arms to run (default AllDeliveryTopologies).
	Topologies []string
	// Protos are the protocols under test.
	Protos []string
	// Watchdog bounds GMP-family perimeter walks, as in the chaos and churn
	// campaigns. MCFR ignores it (concurrent face routing self-terminates).
	Watchdog view.WatchdogLimits
	// Seed makes the campaign reproducible.
	Seed int64
	// Progress, when non-nil, observes per-arm completion.
	Progress ProgressFunc
	// Ctx, when non-nil, cancels the campaign between cells (see Config.Ctx).
	Ctx context.Context
}

// DefaultDeliveryConfig sizes the obstacles so that a single no-progress
// recovery walk exceeds the watchdog budget on both planarization rules.
func DefaultDeliveryConfig() DeliveryConfig {
	return DeliveryConfig{
		Nodes:       2600,
		Width:       1000,
		Height:      1000,
		RadioRange:  60,
		Radio:       sim.DefaultRadioParams(),
		Planarizer:  planar.Gabriel,
		MaxHops:     1500,
		TasksPerArm: 12,
		K:           5,
		Topologies:  AllDeliveryTopologies(),
		Protos:      []string{ProtoGMP, "MCFR"},
		Watchdog:    view.WatchdogLimits{MaxWalkHops: 40},
		Seed:        1,
	}
}

// QuickDeliveryConfig is the CI smoke variant: fewer nodes and tasks, same
// arm structure and the same watchdog.
func QuickDeliveryConfig() DeliveryConfig {
	cfg := DefaultDeliveryConfig()
	cfg.Nodes = 2200
	cfg.TasksPerArm = 4
	cfg.K = 4
	return cfg
}

// Validate checks the campaign parameters.
func (cfg DeliveryConfig) Validate() error {
	if cfg.Nodes < 2 {
		return fmt.Errorf("experiment: delivery needs at least two nodes, got %d", cfg.Nodes)
	}
	if cfg.Width <= 0 || cfg.Height <= 0 || cfg.RadioRange <= 0 {
		return fmt.Errorf("experiment: delivery needs positive geometry, got %vx%v range %v",
			cfg.Width, cfg.Height, cfg.RadioRange)
	}
	if cfg.MaxHops < 1 {
		return fmt.Errorf("experiment: delivery needs a positive hop budget, got %d", cfg.MaxHops)
	}
	if cfg.TasksPerArm < 1 || cfg.K < 1 {
		return fmt.Errorf("experiment: delivery needs at least one task and one destination, got tasks=%d k=%d",
			cfg.TasksPerArm, cfg.K)
	}
	if len(cfg.Topologies) == 0 {
		return fmt.Errorf("experiment: delivery needs at least one topology arm")
	}
	known := map[string]bool{TopoVoid: true, TopoComb: true, TopoSpiral: true}
	for _, tp := range cfg.Topologies {
		if !known[tp] {
			return fmt.Errorf("experiment: unknown delivery topology %q", tp)
		}
	}
	if len(cfg.Protos) == 0 {
		return fmt.Errorf("experiment: delivery needs at least one protocol")
	}
	for _, p := range cfg.Protos {
		if _, ok := routing.Lookup(p); !ok {
			return fmt.Errorf("%w: %q", ErrBadProtocol, p)
		}
	}
	return nil
}

// DeliveryArm is one (topology × protocol) arm's outcome.
type DeliveryArm struct {
	// Topology and Proto identify the arm.
	Topology string
	Proto    string
	// Tasks run, and how many missed at least one destination.
	Tasks       int
	FailedTasks int
	// DeliveredDests / DestCount is the arm's delivery ratio.
	DeliveredDests int
	DestCount      int
	// DestDropsByReason bills every undelivered destination to the reason
	// its last copy died — ReasonWatchdog is the bounded-recovery giveup.
	DestDropsByReason [sim.NumDropReasons]int
	// Violations lists accounting-oracle failures and replay divergences.
	Violations []string
}

// Ratio returns the arm's delivery ratio in [0, 1].
func (a DeliveryArm) Ratio() float64 {
	if a.DestCount == 0 {
		return 0
	}
	return float64(a.DeliveredDests) / float64(a.DestCount)
}

// DeliveryReport summarizes a delivery campaign: arms in (topology, protocol)
// config order.
type DeliveryReport struct {
	Arms []DeliveryArm
}

// Render formats the report for terminal output.
func (r *DeliveryReport) Render() string {
	s := "E-X12: delivery guarantee on adversarial topologies\n" +
		fmt.Sprintf("  %-8s %-8s %10s %10s %10s\n", "topology", "proto", "delivered", "ratio", "wd-drops")
	for _, a := range r.Arms {
		s += fmt.Sprintf("  %-8s %-8s %5d/%-4d %9.1f%% %10d\n",
			a.Topology, a.Proto, a.DeliveredDests, a.DestCount, 100*a.Ratio(),
			a.DestDropsByReason[sim.ReasonWatchdog])
	}
	return s + oracleVerdict("  oracle   ", "PASS (0 violations)\n", r.Violations())
}

// Violations collects every arm's violations, in arm order.
func (r *DeliveryReport) Violations() []string {
	var out []string
	for _, a := range r.Arms {
		out = append(out, a.Violations...)
	}
	return out
}

// deliveryTopology builds topology arm name: the obstacle predicate plus the
// trap axis — the source pin (where greedy routing starts) and the
// destination pin (placed so the greedy path into the pin stalls against the
// obstacle and the recovery walk must recede beyond any bounded watchdog).
func deliveryTopology(cfg DeliveryConfig, name string) (exclude func(geom.Point) bool, srcPin, destPin geom.Point) {
	w, h := cfg.Width, cfg.Height
	cx, cy := w/2, h/2
	// Walls must be thicker than the radio range so they cannot be jumped;
	// corridors stay a couple of ranges wide so the field stays connected.
	thick := cfg.RadioRange * 1.3
	switch name {
	case TopoVoid:
		// A deep concave pocket open to the west: the greedy path east stalls
		// at the inner east wall and the whole pocket must be backed out of
		// with zero progress toward the pinned destination beyond it.
		inner := 0.28 * w
		return network.CShapedObstacle(geom.Pt(cx, cy), inner, inner+thick),
			geom.Pt(0.05*w, cy), geom.Pt(0.95*w, cy)
	case TopoComb:
		// Alternating teeth: the trap axis runs near the bottom edge, so each
		// bottom-rooted tooth forces a no-progress detour of nearly twice its
		// length (up to the top gap and back down).
		gap := 3 * cfg.RadioRange
		return network.CombObstacle(0.2*w, 0.8*w, 0, h, 3, thick, gap),
			geom.Pt(0.05*w, 0.15*h), geom.Pt(0.95*w, 0.15*h)
	case TopoSpiral:
		// The source sits in the spiral's core; every escape winding is a
		// full no-progress loop around the center.
		return network.SpiralObstacle(geom.Pt(cx, cy), 2, 0.42*w, thick),
			geom.Pt(cx, cy), geom.Pt(0.95*w, cy)
	default:
		panic("experiment: unknown delivery topology " + name)
	}
}

// deliveryCellData is one topology arm's deterministic input: the deployed
// network, its planar substrate and the pinned task batch.
type deliveryCellData struct {
	nw    *network.Network
	pg    *planar.Graph
	tasks []workload.Task
}

// buildDeliveryCell deploys topology arm ai and draws its task batch. The
// source and first destination are pinned to the trap axis; the remaining
// destinations are drawn uniformly from the source's connected component.
func buildDeliveryCell(cfg DeliveryConfig, ai int) (*deliveryCellData, error) {
	name := cfg.Topologies[ai]
	exclude, srcPin, destPin := deliveryTopology(cfg, name)
	s := seeds{base: cfg.Seed}
	nodes := network.DeployUniformExclude(cfg.Nodes, cfg.Width, cfg.Height,
		exclude, s.deliveryDeploy(ai))
	nw, err := network.New(nodes, cfg.Width, cfg.Height, cfg.RadioRange)
	if err != nil {
		return nil, fmt.Errorf("delivery %s: %w", name, err)
	}
	src := nw.ClosestNode(srcPin)
	trap := nw.ClosestNode(destPin)
	reach := nw.ReachableFrom(src)
	inComp := make(map[int]bool, len(reach))
	for _, id := range reach {
		inComp[id] = true
	}
	if !inComp[trap] {
		return nil, fmt.Errorf("delivery %s: trap destination %d not connected to source %d (grow Nodes or corridors)",
			name, trap, src)
	}
	r := s.deliveryTasks(ai)
	tasks := make([]workload.Task, cfg.TasksPerArm)
	for ti := range tasks {
		dests := []int{trap}
		seen := map[int]bool{src: true, trap: true}
		for len(dests) < cfg.K {
			cand := reach[r.Intn(len(reach))]
			if seen[cand] {
				continue
			}
			seen[cand] = true
			dests = append(dests, cand)
		}
		tasks[ti] = workload.Task{Source: src, Dests: dests}
	}
	return &deliveryCellData{nw: nw, pg: planar.Planarize(nw, cfg.Planarizer), tasks: tasks}, nil
}

// runDeliveryArm runs one (topology, protocol) arm from scratch: fresh
// engine, oracle views with the watchdog armed, the whole task batch in
// order. It is a pure function of (cfg, data, proto) — the replay check
// calls it twice.
func runDeliveryArm(cfg DeliveryConfig, data *deliveryCellData, proto string) []sim.TaskMetrics {
	radio := cfg.Radio
	radio.RangeM = cfg.RadioRange
	en := sim.NewEngine(data.nw, radio, cfg.MaxHops)
	o := view.NewOracle(data.nw, data.pg)
	o.SetWatchdog(cfg.Watchdog)
	en.SetViews(o)
	out := make([]sim.TaskMetrics, len(data.tasks))
	for ti, task := range data.tasks {
		out[ti] = en.RunTask(makeProtocol(data.nw, proto, 0.3), task.Source, task.Dests)
	}
	return out
}

// RunDelivery executes the delivery-guarantee campaign: topology arms fan
// out on the campaign runner; each audits every protocol arm and re-runs it
// for replay determinism. The returned error covers campaign plumbing only;
// oracle violations land in the report.
func RunDelivery(cfg DeliveryConfig) (*DeliveryReport, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	type deliveryCell struct{ arms []DeliveryArm }
	runner := campaign{workers: Config{}.workerCount(), progress: cfg.Progress, ctx: cfg.Ctx}
	grid, err := runCells(runner, len(cfg.Topologies), 1,
		func(ai, _ int) (deliveryCell, error) {
			data, err := buildDeliveryCell(cfg, ai)
			if err != nil {
				return deliveryCell{}, err
			}
			cell := deliveryCell{arms: make([]DeliveryArm, 0, len(cfg.Protos))}
			for _, proto := range cfg.Protos {
				arm := DeliveryArm{Topology: cfg.Topologies[ai], Proto: proto}
				audit := sim.AuditConfig{MaxHops: cfg.MaxHops,
					AllowDuplicates: concurrentProto(proto)}
				metrics := runDeliveryArm(cfg, data, proto)
				replay := runDeliveryArm(cfg, data, proto)
				if !reflect.DeepEqual(metrics, replay) {
					arm.Violations = append(arm.Violations, fmt.Sprintf(
						"%s %s: replay diverged", arm.Topology, proto))
				}
				for ti := range metrics {
					m := &metrics[ti]
					arm.Tasks++
					if m.Failed() {
						arm.FailedTasks++
					}
					arm.DeliveredDests += len(m.Delivered)
					arm.DestCount += m.DestCount
					for reason, cnt := range m.DestDropsByReason {
						arm.DestDropsByReason[reason] += cnt
					}
					if err := sim.AuditTask(m, audit); err != nil {
						arm.Violations = append(arm.Violations, fmt.Sprintf(
							"%s %s task%d: %v", arm.Topology, proto, ti, err))
					}
				}
				cell.arms = append(cell.arms, arm)
			}
			return cell, nil
		})
	if err != nil {
		return nil, err
	}
	rep := &DeliveryReport{}
	for ai := range grid {
		rep.Arms = append(rep.Arms, grid[ai][0].arms...)
	}
	return rep, nil
}
