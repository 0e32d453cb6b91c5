package experiment

import (
	"fmt"
	"reflect"

	"gmp/internal/geom"
	"gmp/internal/sim"
	"gmp/internal/view"
	"gmp/internal/workload"
)

// This file is the chaos campaign (E-X9): a randomized fault-schedule sweep
// that exists to check invariants, not to plot curves. Every (network × plan
// × protocol) arm runs a task batch under a randomly drawn combination of
// uniform loss, distance-dependent loss, crash/recover schedules, corrupted
// neighbor tables (ghost, missing and perturbed entries) and ARQ on/off —
// with the perimeter watchdog armed — and every finished task is checked
// against the engine's accounting oracle (sim.AuditTask): conservation of
// destinations, no duplicate deliveries, bounded hops, sane counters. Each
// arm is then re-run from scratch and must reproduce its metrics exactly
// (replay determinism). Geocast is excluded by design: region flooding
// violates the partition discipline the oracle checks.

// ChaosConfig parameterizes the chaos campaign.
type ChaosConfig struct {
	// Base supplies geometry, radio, hop budget, seed and runner knobs.
	// Base.Faults/ARQ/Views are ignored — chaos draws its own.
	Base Config
	// Plans is the number of randomized fault schedules per network.
	Plans int
	// TasksPerPlan is the task batch size under each schedule.
	TasksPerPlan int
	// Protos are the protocols under audit (partition-discipline only).
	Protos []string
	// Watchdog arms the perimeter watchdog in every view; corrupted tables
	// can make face traversals loop, so it must be armed.
	Watchdog view.WatchdogLimits
}

// DefaultChaosConfig covers 216 (network × plan × protocol) arms.
func DefaultChaosConfig() ChaosConfig {
	base := Default()
	base.Nodes = 500
	base.Networks = 4
	return ChaosConfig{
		Base:         base,
		Plans:        9,
		TasksPerPlan: 5,
		Protos:       AllProtocols(),
		Watchdog:     view.WatchdogLimits{MaxWalkHops: 40},
	}
}

// QuickChaosConfig is the CI smoke variant: 36 arms.
func QuickChaosConfig() ChaosConfig {
	base := Quick()
	base.Nodes = 300
	return ChaosConfig{
		Base:         base,
		Plans:        3,
		TasksPerPlan: 3,
		Protos:       AllProtocols(),
		Watchdog:     view.WatchdogLimits{MaxWalkHops: 40},
	}
}

// ChaosReport summarizes a chaos campaign.
type ChaosReport struct {
	// Arms is the number of (network × plan × protocol) cells run.
	Arms int
	// Tasks is the number of audited task runs (each arm's batch, counted
	// once — the replay re-run is not double-counted).
	Tasks int
	// FailedTasks counts tasks that missed at least one destination; under
	// injected faults failures are expected, and every one must still pass
	// the audit.
	FailedTasks int
	// DropsByReason aggregates the per-reason copy drops over all arms.
	DropsByReason [sim.NumDropReasons]int
	// Violations lists every oracle violation and replay divergence, in
	// deterministic (network, plan, protocol, task) order. Empty means the
	// campaign passed.
	Violations []string
}

// Render formats the report for terminal output.
func (r *ChaosReport) Render() string {
	s := fmt.Sprintf("E-X9: chaos campaign with invariant oracle\n"+
		"  arms (network x plan x protocol)  %d\n"+
		"  audited tasks                     %d\n"+
		"  failed tasks (faults injected)    %d\n",
		r.Arms, r.Tasks, r.FailedTasks)
	for reason := sim.DropReason(0); reason < sim.NumDropReasons; reason++ {
		if r.DropsByReason[reason] > 0 {
			s += fmt.Sprintf("  drops[%-16s]           %d\n", reason, r.DropsByReason[reason])
		}
	}
	return s + oracleVerdict("  oracle                            ", "PASS (0 violations)\n", r.Violations)
}

// chaosPlan is one drawn fault schedule plus its table-corruption knobs.
type chaosPlan struct {
	faults    sim.FaultPlan
	arq       sim.ARQConfig
	corrupted bool
	// corruption knobs (used only when corrupted)
	pDrop, pGhost, posSigma float64
	k                       int
	tasks                   []workload.Task
}

// drawChaosPlan derives plan pi for network netIdx. Everything is drawn from
// the one seeded stream, in a fixed order, so a replay reproduces the plan
// bit-for-bit.
func drawChaosPlan(cfg ChaosConfig, netIdx, pi int) (chaosPlan, error) {
	s := cfg.Base.seeds()
	r := s.chaos(netIdx, pi)
	p := chaosPlan{
		faults: sim.FaultPlan{
			LossRate: r.Float64() * 0.3,
			EdgeLoss: r.Float64() * 0.3,
			// +1 keeps the engine's fault stream distinct from the draw
			// stream even though both derive from chaosSeed.
			Seed: s.chaosSeed(netIdx, pi) + 1,
		},
	}
	nCrash := r.Intn(cfg.Base.Nodes/100 + 2)
	for i := 0; i < nCrash; i++ {
		c := sim.Crash{Node: r.Intn(cfg.Base.Nodes), At: r.Float64() * 0.05}
		if r.Float64() < 0.5 {
			c.RecoverAt = c.At + r.Float64()*0.05
		}
		p.faults.Crashes = append(p.faults.Crashes, c)
	}
	if pi%2 == 1 {
		p.arq = sim.DefaultARQ()
	}
	// Two plans in three route over corrupted neighbor tables; the rest run
	// on the ideal oracle so the sweep also covers clean-view fault runs.
	p.corrupted = pi%3 != 0
	p.pDrop = r.Float64() * 0.1
	p.pGhost = r.Float64() * 0.05
	p.posSigma = r.Float64() * 15
	p.k = 3 + r.Intn(10)
	tasks, err := workload.GenerateBatch(r, cfg.Base.Nodes, p.k, cfg.TasksPerPlan)
	if err != nil {
		return chaosPlan{}, err
	}
	p.tasks = tasks
	return p, nil
}

// corruptTables builds per-node neighbor tables from the true adjacency and
// then degrades them: entries dropped (missing neighbors / one-sided links),
// advertised positions perturbed (stale beacons), and ghost entries added
// for nodes that are not actually in range. The derivation consumes its own
// seeded stream so the corruption replays identically.
func corruptTables(nw networkLike, p chaosPlan, seed int64) [][]view.Neighbor {
	r := rng(seed)
	n := nw.Len()
	tables := make([][]view.Neighbor, n)
	for i := 0; i < n; i++ {
		var tbl []view.Neighbor
		for _, nb := range nw.Neighbors(i) {
			if r.Float64() < p.pDrop {
				continue
			}
			pos := nw.Pos(nb)
			if p.posSigma > 0 {
				pos = geom.Pt(pos.X+(r.Float64()*2-1)*p.posSigma,
					pos.Y+(r.Float64()*2-1)*p.posSigma)
			}
			tbl = append(tbl, view.Neighbor{ID: nb, Pos: pos})
		}
		if r.Float64() < p.pGhost {
			// A ghost: a fabricated entry for a random node, placed at a
			// plausible in-range position. Selecting it yields an invalid
			// send, which the audit tolerates for corrupted runs.
			ghost := r.Intn(n)
			self := nw.Pos(i)
			pos := geom.Pt(self.X+(r.Float64()*2-1)*100, self.Y+(r.Float64()*2-1)*100)
			tbl = append(tbl, view.Neighbor{ID: ghost, Pos: pos})
		}
		tables[i] = tbl
	}
	return tables
}

// networkLike is the slice of network.Network the corruption needs; it keeps
// corruptTables trivially testable.
type networkLike interface {
	Len() int
	Neighbors(id int) []int
	Pos(id int) geom.Point
}

// chaosViews builds the arm's view provider: corrupted live tables or the
// ideal oracle, the watchdog armed either way.
func chaosViews(cfg ChaosConfig, d *deployment, p chaosPlan, netIdx, pi int) view.Provider {
	if p.corrupted {
		selfPos := make([]geom.Point, d.nw.Len())
		for i := range selfPos {
			selfPos[i] = d.nw.Pos(i)
		}
		// Seed offset 2: distinct from the draw stream (0) and the engine's
		// fault stream (+1).
		tables := corruptTables(d.nw, p, cfg.Base.seeds().chaosSeed(netIdx, pi)+2)
		return view.NewLive(selfPos, tables, view.LiveConfig{
			RadioRange: cfg.Base.RadioRange,
			Planarizer: cfg.Base.Planarizer,
			Watchdog:   cfg.Watchdog,
		})
	}
	o := view.NewOracle(d.nw, d.pg)
	o.SetWatchdog(cfg.Watchdog)
	return o
}

// runChaosArm runs one (network, plan, protocol) arm from scratch: fresh
// engine, fresh views, the plan's faults and ARQ installed, the whole task
// batch executed in order. It is a pure function of (cfg, netIdx, pi, proto)
// — the replay check calls it twice.
func runChaosArm(cfg ChaosConfig, d *deployment, p chaosPlan, netIdx, pi int, proto string) ([]sim.TaskMetrics, error) {
	en := sim.NewEngine(d.nw, cfg.Base.engineRadio(), cfg.Base.MaxHops)
	en.SetViews(chaosViews(cfg, d, p, netIdx, pi))
	if err := en.SetFaults(p.faults); err != nil {
		return nil, err
	}
	if err := en.SetARQ(p.arq); err != nil {
		return nil, err
	}
	out := make([]sim.TaskMetrics, len(p.tasks))
	for ti, task := range p.tasks {
		// PBM runs at a fixed λ — the best-of-λ rule would run each task
		// seven times and is irrelevant to invariant checking.
		out[ti] = en.RunTask(makeProtocol(d.nw, proto, 0.3), task.Source, task.Dests)
	}
	return out, nil
}

// chaosCell is one (network, plan) cell's outcome across all protocols.
type chaosCell struct {
	arms, tasks, failed int
	drops               [sim.NumDropReasons]int
	violations          []string
}

// RunChaos executes the chaos campaign: (network × plan) cells fan out on
// the campaign runner, each auditing every protocol arm and re-running it
// for replay determinism. The report is deterministic for a given config.
// The returned error covers campaign plumbing only; oracle violations land
// in the report.
func RunChaos(cfg ChaosConfig) (*ChaosReport, error) {
	if err := cfg.Base.Validate(cfg.Protos); err != nil {
		return nil, err
	}
	if cfg.Plans < 1 || cfg.TasksPerPlan < 1 {
		return nil, fmt.Errorf("experiment: chaos needs at least one plan and one task, got %d/%d",
			cfg.Plans, cfg.TasksPerPlan)
	}
	bs := newBenches(cfg.Base)
	grid, err := runCells(newCampaign(cfg.Base), cfg.Base.Networks, cfg.Plans,
		func(netIdx, pi int) (chaosCell, error) {
			d, err := bs.deployment(netIdx)
			if err != nil {
				return chaosCell{}, err
			}
			plan, err := drawChaosPlan(cfg, netIdx, pi)
			if err != nil {
				return chaosCell{}, err
			}
			var cell chaosCell
			audit := sim.AuditConfig{MaxHops: cfg.Base.MaxHops, AllowInvalidSends: plan.corrupted}
			for _, proto := range cfg.Protos {
				// Concurrent protocols duplicate deliveries by design; the
				// audit tolerates that for them and no one else.
				audit.AllowDuplicates = concurrentProto(proto)
				metrics, err := runChaosArm(cfg, d, plan, netIdx, pi, proto)
				if err != nil {
					return chaosCell{}, err
				}
				replay, err := runChaosArm(cfg, d, plan, netIdx, pi, proto)
				if err != nil {
					return chaosCell{}, err
				}
				cell.arms++
				if !reflect.DeepEqual(metrics, replay) {
					cell.violations = append(cell.violations, fmt.Sprintf(
						"net%d plan%d %s: replay diverged", netIdx, pi, proto))
				}
				for ti := range metrics {
					m := &metrics[ti]
					cell.tasks++
					if m.Failed() {
						cell.failed++
					}
					for reason, cnt := range m.DropsByReason {
						cell.drops[reason] += cnt
					}
					if err := sim.AuditTask(m, audit); err != nil {
						cell.violations = append(cell.violations, fmt.Sprintf(
							"net%d plan%d %s task%d: %v", netIdx, pi, proto, ti, err))
					}
				}
			}
			return cell, nil
		})
	if err != nil {
		return nil, err
	}

	rep := &ChaosReport{}
	for netIdx := range grid {
		for _, cell := range grid[netIdx] {
			rep.Arms += cell.arms
			rep.Tasks += cell.tasks
			rep.FailedTasks += cell.failed
			for reasonIdx, cnt := range cell.drops {
				rep.DropsByReason[reasonIdx] += cnt
			}
			rep.Violations = append(rep.Violations, cell.violations...)
		}
	}
	return rep, nil
}
