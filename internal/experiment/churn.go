package experiment

import (
	"errors"
	"fmt"
	"math"
	"reflect"

	"gmp/internal/beacon"
	"gmp/internal/geom"
	"gmp/internal/groups"
	"gmp/internal/mobility"
	"gmp/internal/network"
	"gmp/internal/sim"
	"gmp/internal/view"
	"gmp/internal/workload"
)

// This file is the churn campaign (E-X11): churn as a standing workload
// rather than an injected fault. Every (network × sweep-point) cell runs a
// sequence of multicast sessions whose destination sets come from the
// lease-backed group-membership service, whose neighbor tables come from an
// aging beacon tracker (TTL expiry, periodic refresh), and whose packets see
// mid-session joins and leaves spliced and retired by the engine's churn
// plan — with waypoint mobility moving the ground truth underneath at the
// sweep's node speed. The sweep crosses churn rate × node speed; every task
// is checked against the accounting oracle (sim.AuditTask), and each
// protocol arm is re-run from scratch and must reproduce its metrics exactly
// (replay determinism), mirroring the chaos campaign.

// ChurnConfig parameterizes the churn campaign.
type ChurnConfig struct {
	// Base supplies geometry, radio, hop budget, seed and runner knobs.
	// Base.Faults/ARQ/Views are ignored — churn builds its own.
	Base Config
	// Rates is the churn-rate sweep: the expected number of membership
	// events per session, as a fraction of the session's member count
	// (0 = static membership).
	Rates []float64
	// SpeedsMps is the node-speed sweep: the waypoint model's top speed in
	// m/s (0 = static deployment, exact beacon tables).
	SpeedsMps []float64
	// SessionPeriodSec is the wall-clock spacing between session starts;
	// beacon tables age and leases expire on this clock.
	SessionPeriodSec float64
	// Sessions is the number of multicast sessions per cell.
	Sessions int
	// K is the number of fresh group joins per session; the actual
	// destination set is whatever the membership lookup returns (joins from
	// earlier sessions linger until their leases expire).
	K int
	// Beacon parameterizes the aging neighbor tracker.
	Beacon beacon.Config
	// LeaseSec is the membership lease; choose it between one and two
	// session periods so unrefreshed members survive exactly one follow-on
	// session and are then pruned (exercising soft-state expiry).
	LeaseSec float64
	// Protos are the protocols under audit.
	Protos []string
	// Watchdog arms the perimeter watchdog in every view; aged tables can
	// make face traversals loop, so it must be armed.
	Watchdog view.WatchdogLimits
}

// DefaultChurnConfig covers 162 (network × rate × speed × protocol) arms.
func DefaultChurnConfig() ChurnConfig {
	base := Default()
	base.Nodes = 500
	base.Networks = 3
	return ChurnConfig{
		Base:             base,
		Rates:            []float64{0, 0.3, 0.6},
		SpeedsMps:        []float64{0, 5, 15},
		SessionPeriodSec: 2,
		Sessions:         6,
		K:                10,
		Beacon:           beacon.DefaultConfig(),
		LeaseSec:         3,
		Protos:           AllProtocols(),
		Watchdog:         view.WatchdogLimits{MaxWalkHops: 40},
	}
}

// QuickChurnConfig is the CI smoke variant: 48 arms.
func QuickChurnConfig() ChurnConfig {
	cfg := DefaultChurnConfig()
	base := Quick()
	base.Nodes = 250
	cfg.Base = base
	cfg.Rates = []float64{0, 0.5}
	cfg.SpeedsMps = []float64{0, 10}
	cfg.SessionPeriodSec = 1.5
	cfg.LeaseSec = 2.25
	cfg.Sessions = 3
	cfg.K = 8
	return cfg
}

// ChurnReport summarizes a churn campaign.
type ChurnReport struct {
	// Arms is the number of (network × sweep-point × protocol) cells run.
	Arms int
	// Tasks is the number of audited session runs (the replay re-run is not
	// double-counted).
	Tasks int
	// FailedTasks counts sessions that missed at least one destination that
	// was still a member at the end (left destinations are not failures).
	FailedTasks int
	// DropsByReason aggregates the per-reason copy drops over all arms.
	DropsByReason [sim.NumDropReasons]int
	// JoinsSpliced and JoinsMissed aggregate the engine's mid-session join
	// accounting over all arms.
	JoinsSpliced, JoinsMissed int
	// Control is the membership service's control-plane cost, counted once
	// per cell (membership traffic is protocol-independent).
	Control groups.Metrics
	// Rates, SpeedsMps and Protos echo the sweep axes.
	Rates, SpeedsMps []float64
	Protos           []string
	// Delivered and Eligible count destinations per [sweep-point][protocol],
	// where eligible excludes destinations retired by a leave.
	Delivered, Eligible [][]int
	// Violations lists every oracle violation and replay divergence, in
	// deterministic (network, point, protocol, session) order. Empty means
	// the campaign passed.
	Violations []string
}

// Render formats the report for terminal output.
func (r *ChurnReport) Render() string {
	s := fmt.Sprintf("E-X11: churn x speed campaign with invariant oracle\n"+
		"  arms (network x point x protocol)  %d\n"+
		"  audited sessions                   %d\n"+
		"  failed sessions                    %d\n"+
		"  joins spliced / missed             %d / %d\n"+
		"  control msgs / ops / expirations   %d / %d / %d\n",
		r.Arms, r.Tasks, r.FailedTasks, r.JoinsSpliced, r.JoinsMissed,
		r.Control.Messages, r.Control.Operations, r.Control.Expirations)
	for reason := sim.DropReason(0); reason < sim.NumDropReasons; reason++ {
		if r.DropsByReason[reason] > 0 {
			s += fmt.Sprintf("  drops[%-16s]            %d\n", reason, r.DropsByReason[reason])
		}
	}
	s += "  delivered/eligible destinations by sweep point:\n"
	s += "    rate speed"
	for _, p := range r.Protos {
		s += fmt.Sprintf(" %7s", p)
	}
	s += "\n"
	for pt := range r.Delivered {
		rate := r.Rates[pt/len(r.SpeedsMps)]
		speed := r.SpeedsMps[pt%len(r.SpeedsMps)]
		s += fmt.Sprintf("    %4.2f %5.1f", rate, speed)
		for pi := range r.Protos {
			if r.Eligible[pt][pi] > 0 {
				s += fmt.Sprintf("   %5.3f",
					float64(r.Delivered[pt][pi])/float64(r.Eligible[pt][pi]))
			} else {
				s += "       -"
			}
		}
		s += "\n"
	}
	return s + oracleVerdict("  oracle                             ", "PASS (0 violations)\n", r.Violations)
}

// churnSession is one session's precomputed inputs: the ground-truth
// topology at session start (the engine's physics), the aged beacon tables
// routing decides from, and the engine-level churn plan.
type churnSession struct {
	nw     *network.Network
	self   []geom.Point
	tables [][]beacon.Entry
	src    int
	dests  []int
	plan   sim.ChurnPlan
}

// churnCellData is one (network, sweep-point) cell's precomputed inputs,
// shared read-only by every protocol arm and its replay. The membership
// service's control cost is paid here, once — it is protocol-independent.
type churnCellData struct {
	sessions []churnSession
	arq      sim.ARQConfig
	ctrl     groups.Metrics
	speed    float64
}

// warmup is how long the beacon tracker runs before the first session, so
// the first tables are fully populated rather than cold-start empty.
func (cfg ChurnConfig) warmup() float64 {
	return float64(cfg.Beacon.TTLPeriods) * cfg.Beacon.PeriodSec
}

// buildChurnCell precomputes sweep point pi's sessions on network netIdx.
// Everything random derives from the churnSeed stream family in a fixed
// order, so the build is a pure function of (cfg, netIdx, pi).
func buildChurnCell(cfg ChurnConfig, d *deployment, netIdx, pi int) (*churnCellData, error) {
	rate := cfg.Rates[pi/len(cfg.SpeedsMps)]
	speed := cfg.SpeedsMps[pi%len(cfg.SpeedsMps)]
	s := cfg.Base.seeds()
	n := cfg.Base.Nodes

	initPts := make([]geom.Point, n)
	for i := range initPts {
		initPts[i] = d.nw.Pos(i)
	}
	horizon := cfg.warmup() + float64(cfg.Sessions)*cfg.SessionPeriodSec + 1
	pos := beacon.Static(initPts)
	if speed > 0 {
		// Seed offset 1: the mobility model's stream, distinct from the
		// task/event draw stream (0) and the tracker's phase stream (+2).
		model, err := mobility.NewRandomWaypoint(initPts, mobility.Config{
			Width: cfg.Base.Width, Height: cfg.Base.Height,
			SpeedMin: speed / 2, SpeedMax: speed, Pause: 1,
		}, rng(s.churnSeed(netIdx, pi)+1))
		if err != nil {
			return nil, err
		}
		pos, err = beacon.Sampled(model, 0.1, horizon)
		if err != nil {
			return nil, err
		}
	}
	tracker, err := beacon.NewTracker(cfg.Beacon, n, pos, cfg.Base.RadioRange,
		rng(s.churnSeed(netIdx, pi)+2))
	if err != nil {
		return nil, err
	}

	// The membership service routes its control traffic over the initial
	// deployment; one group per cell, refreshed each session, so members
	// linger across sessions until their leases expire.
	svc := groups.New(d.nw, d.pg, groups.WithLease(cfg.LeaseSec))
	group := fmt.Sprintf("e-x11/net%d/pt%d", netIdx, pi)

	r := s.churn(netIdx, pi)
	tasks, err := workload.GenerateBatch(r, n, cfg.K, cfg.Sessions)
	if err != nil {
		return nil, err
	}

	data := &churnCellData{speed: speed}
	if pi%2 == 1 {
		data.arq = sim.DefaultARQ()
	}
	for i, task := range tasks {
		T := cfg.warmup() + float64(i)*cfg.SessionPeriodSec
		if err := tracker.AdvanceTo(T); err != nil {
			return nil, err
		}
		tables := tracker.Tables()
		truth := pos(T)
		nwT := d.nw
		if speed > 0 {
			nwT, err = network.New(network.FromPoints(truth),
				cfg.Base.Width, cfg.Base.Height, cfg.Base.RadioRange)
			if err != nil {
				return nil, fmt.Errorf("net%d pt%d session %d: %w", netIdx, pi, i, err)
			}
		}

		// Fresh joins for this session's task; a join that cannot route to
		// the group home simply does not take effect (its cost still counts).
		for _, dst := range task.Dests {
			if err := svc.JoinAt(dst, group, T); err != nil && !errors.Is(err, groups.ErrUnroutable) {
				return nil, err
			}
		}
		// The destination set is whatever the lookup returns: this session's
		// joins plus unexpired members from earlier sessions.
		members, err := svc.MembersAt(task.Source, group, T)
		if err != nil {
			// Unroutable control plane or an empty group: no session.
			continue
		}
		dests := members[:0:0]
		for _, m := range members {
			if m != task.Source {
				dests = append(dests, m)
			}
		}
		if len(dests) == 0 {
			continue
		}

		// Mid-session churn events: each is a leave of a current member or a
		// join of an outsider, drawn from the same stream, registered both
		// with the engine plan (session-relative time) and the membership
		// service (absolute time).
		memberSet := make(map[int]bool, len(dests))
		pool := append([]int(nil), dests...)
		for _, m := range dests {
			memberSet[m] = true
		}
		var plan sim.ChurnPlan
		nEvents := int(rate*float64(len(dests)) + 0.5)
		for e := 0; e < nEvents; e++ {
			at := r.Float64() * 0.05
			if r.Float64() < 0.5 && len(pool) > 0 {
				idx := r.Intn(len(pool))
				node := pool[idx]
				pool = append(pool[:idx], pool[idx+1:]...)
				plan.Leaves = append(plan.Leaves, sim.Membership{Node: node, At: at})
				if err := svc.Leave(node, group); err != nil && !errors.Is(err, groups.ErrUnroutable) {
					return nil, err
				}
				continue
			}
			for try := 0; try < 8; try++ {
				cand := r.Intn(n)
				if cand == task.Source || memberSet[cand] {
					continue
				}
				memberSet[cand] = true
				plan.Joins = append(plan.Joins, sim.Membership{Node: cand, At: at})
				if err := svc.JoinAt(cand, group, T+at); err != nil && !errors.Is(err, groups.ErrUnroutable) {
					return nil, err
				}
				break
			}
		}
		if speed > 0 {
			T := T // capture this session's epoch, not the loop variable
			plan.Motion = func(t float64) []geom.Point { return pos(T + t) }
		}

		selfPos := truth
		if speed == 0 {
			selfPos = initPts
		}
		data.sessions = append(data.sessions, churnSession{
			nw: nwT, self: selfPos, tables: tables,
			src: task.Source, dests: dests, plan: plan,
		})
	}
	data.ctrl = svc.Metrics()
	return data, nil
}

// runChurnArm runs one (network, sweep-point, protocol) arm from scratch:
// per session a fresh engine over that session's ground truth, views over
// its aged tables, and the session's churn plan installed. It is a pure
// function of the cell data — the replay check calls it twice.
func runChurnArm(cfg ChurnConfig, data *churnCellData, proto string) ([]sim.TaskMetrics, error) {
	out := make([]sim.TaskMetrics, len(data.sessions))
	for i, cs := range data.sessions {
		en := sim.NewEngine(cs.nw, cfg.Base.engineRadio(), cfg.Base.MaxHops)
		en.SetViews(beacon.ViewsArmed(cs.self, cs.tables, cfg.Base.RadioRange,
			cfg.Base.Planarizer, cfg.Watchdog))
		if err := en.SetARQ(data.arq); err != nil {
			return nil, err
		}
		if err := en.SetChurn(cs.plan); err != nil {
			return nil, err
		}
		// Each protocol is built over the session's ground-truth network;
		// PBM runs at a fixed λ, as in the chaos campaign.
		out[i] = en.RunTask(makeProtocol(cs.nw, proto, 0.3), cs.src, cs.dests)
	}
	return out, nil
}

// churnCell is one (network, sweep-point) cell's outcome across all
// protocols.
type churnCell struct {
	arms, tasks, failed int
	drops               [sim.NumDropReasons]int
	spliced, missed     int
	ctrl                groups.Metrics
	delivered, eligible []int // per protocol
	violations          []string
}

// Validate checks the sweep parameters (Base and Beacon validate
// themselves).
func (cfg ChurnConfig) Validate() error {
	if err := cfg.Base.Validate(cfg.Protos); err != nil {
		return err
	}
	if err := cfg.Beacon.Validate(); err != nil {
		return err
	}
	if len(cfg.Rates) == 0 || len(cfg.SpeedsMps) == 0 {
		return errors.New("experiment: churn needs at least one rate and one speed")
	}
	for _, v := range cfg.Rates {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("experiment: churn rate %v not a finite non-negative number", v)
		}
	}
	for _, v := range cfg.SpeedsMps {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("experiment: churn speed %v not a finite non-negative number", v)
		}
	}
	if cfg.Sessions < 1 || cfg.K < 2 {
		return fmt.Errorf("experiment: churn needs at least one session and two joins, got %d/%d",
			cfg.Sessions, cfg.K)
	}
	if !(cfg.SessionPeriodSec > 0) || math.IsInf(cfg.SessionPeriodSec, 0) {
		return fmt.Errorf("experiment: session period %v not a finite positive number", cfg.SessionPeriodSec)
	}
	if !(cfg.LeaseSec > 0) || math.IsInf(cfg.LeaseSec, 0) {
		return fmt.Errorf("experiment: lease %v not a finite positive number", cfg.LeaseSec)
	}
	return nil
}

// RunChurn executes the churn campaign: (network × sweep-point) cells fan
// out on the campaign runner, each auditing every protocol arm and
// re-running it for replay determinism. The report is deterministic for a
// given config — byte-identical for any worker count. The returned error
// covers campaign plumbing only; oracle violations land in the report.
func RunChurn(cfg ChurnConfig) (*ChurnReport, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	points := len(cfg.Rates) * len(cfg.SpeedsMps)
	bs := newBenches(cfg.Base)
	grid, err := runCells(newCampaign(cfg.Base), cfg.Base.Networks, points,
		func(netIdx, pi int) (churnCell, error) {
			d, err := bs.deployment(netIdx)
			if err != nil {
				return churnCell{}, err
			}
			data, err := buildChurnCell(cfg, d, netIdx, pi)
			if err != nil {
				return churnCell{}, err
			}
			cell := churnCell{
				ctrl:      data.ctrl,
				delivered: make([]int, len(cfg.Protos)),
				eligible:  make([]int, len(cfg.Protos)),
			}
			// Motion makes aged tables address nodes that have drifted out of
			// range; those invalid sends are the phenomenon under test, not a
			// bug, so the audit tolerates them on mobile points only.
			audit := sim.AuditConfig{MaxHops: cfg.Base.MaxHops, AllowInvalidSends: data.speed > 0}
			for protoIdx, proto := range cfg.Protos {
				// Concurrent protocols duplicate deliveries by design; the
				// audit tolerates that for them and no one else.
				audit.AllowDuplicates = concurrentProto(proto)
				metrics, err := runChurnArm(cfg, data, proto)
				if err != nil {
					return churnCell{}, err
				}
				replay, err := runChurnArm(cfg, data, proto)
				if err != nil {
					return churnCell{}, err
				}
				cell.arms++
				if !reflect.DeepEqual(metrics, replay) {
					cell.violations = append(cell.violations, fmt.Sprintf(
						"net%d pt%d %s: replay diverged", netIdx, pi, proto))
				}
				for si := range metrics {
					m := &metrics[si]
					cell.tasks++
					if len(m.Delivered) < m.EligibleDests() {
						cell.failed++
					}
					cell.delivered[protoIdx] += len(m.Delivered)
					cell.eligible[protoIdx] += m.EligibleDests()
					cell.spliced += m.JoinsSpliced
					cell.missed += m.JoinsMissed
					for reason, cnt := range m.DropsByReason {
						cell.drops[reason] += cnt
					}
					if err := sim.AuditTask(m, audit); err != nil {
						cell.violations = append(cell.violations, fmt.Sprintf(
							"net%d pt%d %s session%d: %v", netIdx, pi, proto, si, err))
					}
				}
			}
			return cell, nil
		})
	if err != nil {
		return nil, err
	}

	rep := &ChurnReport{
		Rates:     append([]float64(nil), cfg.Rates...),
		SpeedsMps: append([]float64(nil), cfg.SpeedsMps...),
		Protos:    append([]string(nil), cfg.Protos...),
		Delivered: make([][]int, points),
		Eligible:  make([][]int, points),
	}
	for pt := range rep.Delivered {
		rep.Delivered[pt] = make([]int, len(cfg.Protos))
		rep.Eligible[pt] = make([]int, len(cfg.Protos))
	}
	for netIdx := range grid {
		for pt, cell := range grid[netIdx] {
			rep.Arms += cell.arms
			rep.Tasks += cell.tasks
			rep.FailedTasks += cell.failed
			rep.JoinsSpliced += cell.spliced
			rep.JoinsMissed += cell.missed
			rep.Control.Messages += cell.ctrl.Messages
			rep.Control.Operations += cell.ctrl.Operations
			rep.Control.Expirations += cell.ctrl.Expirations
			for reasonIdx, cnt := range cell.drops {
				rep.DropsByReason[reasonIdx] += cnt
			}
			for pi := range cfg.Protos {
				rep.Delivered[pt][pi] += cell.delivered[pi]
				rep.Eligible[pt][pi] += cell.eligible[pi]
			}
			rep.Violations = append(rep.Violations, cell.violations...)
		}
	}
	return rep, nil
}
