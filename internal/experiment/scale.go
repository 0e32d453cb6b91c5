package experiment

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"gmp/internal/network"
	"gmp/internal/planar"
	"gmp/internal/routing"
	"gmp/internal/sim"
	"gmp/internal/view"
	"gmp/internal/workload"
)

// This file is the scale sweep (E-X10): how far the simulator itself scales.
// Density is held constant (a fixed deployment area per node) while the node
// count sweeps 10⁴ → 10⁶, and each arm runs a batch of concurrent multicast
// sessions through the sharded kernel — sessions scattered across the region
// are what give the tiled event queues genuine cross-tile parallelism to
// exploit. Each arm reports two kinds of numbers:
//
//   - Deterministic simulation outcomes (transmissions, deliveries, drops,
//     energy, worst latency, audit verdicts). These must be byte-identical
//     for every shard count — that is the kernel's contract, and
//     TestShardsDeterminism pins it through this very sweep.
//   - Performance observations (build/run wall time, hops per second, peak
//     RSS). These vary run to run and are excluded from the deterministic
//     fingerprint.
//
// One additional arm at the smallest node count repeats the first protocol
// under frame loss, ARQ, crashes with recovery, and mid-session membership
// churn, so the determinism claim covers the kernel's fault and churn
// machinery, not just the fault-free fast path.

// ScaleConfig parameterizes the scale sweep.
type ScaleConfig struct {
	// NodeCounts is the sweep axis, in ascending order (peak-RSS readings
	// are process-lifetime high-water marks, so ascending order keeps each
	// arm's reading attributable to its own deployment).
	NodeCounts []int
	// AreaPerNodeM2 fixes density: each arm deploys on a square of area
	// Nodes·AreaPerNodeM2.
	AreaPerNodeM2 float64
	// RadioRange in meters.
	RadioRange float64
	// Radio supplies the remaining radio parameters (RangeM is overridden
	// by RadioRange).
	Radio sim.RadioParams
	// Planarizer selects the perimeter substrate.
	Planarizer planar.Kind
	// K destinations per session.
	K int
	// Sessions per arm, started SessionIntervalSec apart so they overlap.
	Sessions int
	// SessionIntervalSec is the virtual-time spacing between session starts.
	SessionIntervalSec float64
	// MaxHops is the per-packet hop budget; 0 disables it (paths grow with
	// √Nodes, so a fixed budget would bite only the largest arms).
	MaxHops int
	// Shards is the kernel's worker count; 0 selects runtime.NumCPU().
	// Deterministic outcomes are identical for every value.
	Shards int
	// Protos are the protocols swept per node count.
	Protos []string
	// FaultArm adds the loss+ARQ+crash+churn arm (smallest node count,
	// first protocol).
	FaultArm bool
	// Seed is the campaign's base seed.
	Seed int64
	// Progress, when non-nil, observes per-arm completion.
	Progress ProgressFunc
	// Ctx, when non-nil, cancels the sweep between arms (see Config.Ctx).
	Ctx context.Context
}

// DefaultScaleConfig is the paper-scale sweep: 10⁴ → 10⁶ nodes at constant
// density, GMP against the greedy baseline.
func DefaultScaleConfig() ScaleConfig {
	base := Default()
	return ScaleConfig{
		NodeCounts:         []int{10_000, 100_000, 1_000_000},
		AreaPerNodeM2:      1000,
		RadioRange:         150,
		Radio:              base.Radio,
		Planarizer:         base.Planarizer,
		K:                  10,
		Sessions:           32,
		SessionIntervalSec: 0.002,
		MaxHops:            0,
		Shards:             0,
		Protos:             []string{ProtoGMP, ProtoGRD},
		FaultArm:           true,
		Seed:               base.Seed,
	}
}

// QuickScaleConfig is the CI smoke variant: small node counts, few sessions,
// same arm structure (including the fault arm).
func QuickScaleConfig() ScaleConfig {
	cfg := DefaultScaleConfig()
	cfg.NodeCounts = []int{1200, 3000}
	cfg.Sessions = 6
	cfg.K = 8
	return cfg
}

// Validate checks the sweep parameters. Out-of-range values are errors,
// never silently clamped.
func (cfg ScaleConfig) Validate() error {
	if len(cfg.NodeCounts) == 0 {
		return fmt.Errorf("experiment: scale needs at least one node count")
	}
	prev := 0
	for _, n := range cfg.NodeCounts {
		if n < 2 {
			return fmt.Errorf("experiment: scale node count %d below 2", n)
		}
		if n <= prev {
			return fmt.Errorf("experiment: scale node counts must be strictly ascending, got %v", cfg.NodeCounts)
		}
		prev = n
	}
	if !(cfg.AreaPerNodeM2 > 0) || math.IsInf(cfg.AreaPerNodeM2, 0) {
		return fmt.Errorf("experiment: area per node %v not a finite positive number", cfg.AreaPerNodeM2)
	}
	if !(cfg.RadioRange > 0) || math.IsInf(cfg.RadioRange, 0) {
		return fmt.Errorf("experiment: radio range %v not a finite positive number", cfg.RadioRange)
	}
	if cfg.K < 1 || cfg.Sessions < 1 {
		return fmt.Errorf("experiment: scale needs at least one destination and one session, got k=%d sessions=%d",
			cfg.K, cfg.Sessions)
	}
	if !(cfg.SessionIntervalSec >= 0) || math.IsInf(cfg.SessionIntervalSec, 0) {
		return fmt.Errorf("experiment: session interval %v not a finite non-negative number", cfg.SessionIntervalSec)
	}
	if cfg.MaxHops < 0 {
		return fmt.Errorf("experiment: negative hop budget %d", cfg.MaxHops)
	}
	if cfg.Shards < 0 {
		return fmt.Errorf("experiment: negative shard count %d", cfg.Shards)
	}
	if len(cfg.Protos) == 0 {
		return fmt.Errorf("experiment: scale needs at least one protocol")
	}
	for _, p := range cfg.Protos {
		if _, ok := routing.Lookup(p); !ok {
			return fmt.Errorf("%w: %q", ErrBadProtocol, p)
		}
	}
	return nil
}

// shards resolves the configured worker count.
func (cfg ScaleConfig) shards() int {
	if cfg.Shards > 0 {
		return cfg.Shards
	}
	return runtime.NumCPU()
}

// ScaleArm is one (node count × protocol [× fault]) arm's outcome.
type ScaleArm struct {
	// Nodes, Proto and Faulted identify the arm.
	Nodes   int
	Proto   string
	Faulted bool
	// Tiles is the deployment's tile count — the kernel's available
	// parallelism (a pure function of geometry, so deterministic).
	Tiles int

	// Deterministic outcomes (identical for every shard count).
	Sessions          int
	Transmissions     int
	Retransmissions   int
	LinkFailures      int
	Acks              int
	DeliveredDests    int
	DeliveredHopsSum  int
	DestCount         int
	FailedSessions    int
	DropsByReason     [sim.NumDropReasons]int
	DestDropsByReason [sim.NumDropReasons]int
	JoinsSpliced      int
	JoinsMissed       int
	EnergyJ           float64
	MaxLatencySec     float64
	// Violations lists accounting-oracle failures (sim.AuditTask), in
	// session order. Empty means the arm passed.
	Violations []string

	// Performance observations (excluded from the deterministic
	// fingerprint). BuildSec covers deployment + planarization + session
	// generation, amortized over the node count's arms; RunSec covers the
	// kernel run alone. HopsPerSec is Transmissions/RunSec. PeakRSSBytes is
	// the process high-water mark after the run (0 = unknown platform).
	BuildSec     float64
	RunSec       float64
	HopsPerSec   float64
	PeakRSSBytes int64
}

// ScaleReport summarizes a scale sweep.
type ScaleReport struct {
	// Shards echoes the resolved kernel worker count.
	Shards int
	// Arms, in sweep order: node counts ascending, protocols in config
	// order, with the fault arm right after the smallest node count's
	// clean arms.
	Arms []ScaleArm
}

// Fingerprint renders every deterministic field of every arm, one line per
// arm. The kernel's contract is that this string is byte-identical for every
// shard count — TestShardsDeterminism and TestCampaignGoldens compare it
// directly. Performance fields are deliberately absent.
func (r *ScaleReport) Fingerprint() string {
	var s string
	for _, a := range r.Arms {
		s += fmt.Sprintf("n=%d proto=%s faulted=%t tiles=%d sessions=%d tx=%d retx=%d linkfail=%d acks=%d "+
			"delivered=%d hopsum=%d dests=%d failed=%d drops=%v destdrops=%v spliced=%d missed=%d "+
			"energy=%v maxlat=%v violations=%d\n",
			a.Nodes, a.Proto, a.Faulted, a.Tiles, a.Sessions, a.Transmissions, a.Retransmissions,
			a.LinkFailures, a.Acks, a.DeliveredDests, a.DeliveredHopsSum, a.DestCount,
			a.FailedSessions, a.DropsByReason, a.DestDropsByReason, a.JoinsSpliced, a.JoinsMissed,
			a.EnergyJ, a.MaxLatencySec, len(a.Violations))
	}
	return s
}

// Violations collects every arm's violations, in arm order.
func (r *ScaleReport) Violations() []string {
	var out []string
	for _, a := range r.Arms {
		out = append(out, a.Violations...)
	}
	return out
}

// Render formats the report for terminal output: the deterministic outcome
// columns, then the per-arm performance columns.
func (r *ScaleReport) Render() string {
	s := fmt.Sprintf("E-X10: scale sweep through the sharded kernel (%d shards)\n", r.Shards)
	s += "    nodes    proto  tiles  deliv/dests     tx  energy(J)  build(s)    run(s)     hops/s  peakRSS\n"
	for _, a := range r.Arms {
		name := a.Proto
		if a.Faulted {
			name += "+f"
		}
		rss := "unknown"
		if a.PeakRSSBytes > 0 {
			rss = fmt.Sprintf("%.0fMB", float64(a.PeakRSSBytes)/(1<<20))
		}
		s += fmt.Sprintf("  %7d %8s  %5d  %5d/%-5d %6d %10.4f %9.2f %9.3f %10.0f %8s\n",
			a.Nodes, name, a.Tiles, a.DeliveredDests, a.DestCount, a.Transmissions,
			a.EnergyJ, a.BuildSec, a.RunSec, a.HopsPerSec, rss)
	}
	return s + oracleVerdict("  oracle  ", "PASS (0 violations)\n", r.Violations())
}

// scaleBench is one node count's prebuilt inputs, shared by its arms: the
// deployment, the perimeter substrate, the view provider and the session
// batch. Building it is a pure function of (cfg, ni).
type scaleBench struct {
	nw       *network.Network
	prov     *view.Oracle
	tasks    []workload.Task
	buildSec float64
}

// buildScaleBench deploys node-count point ni at constant density.
func buildScaleBench(cfg ScaleConfig, ni int) (*scaleBench, error) {
	start := time.Now()
	s := seeds{base: cfg.Seed}
	n := cfg.NodeCounts[ni]
	side := math.Sqrt(float64(n) * cfg.AreaPerNodeM2)
	nodes := network.DeployUniform(n, side, side, s.scaleDeploy(ni))
	nw, err := network.New(nodes, side, side, cfg.RadioRange)
	if err != nil {
		return nil, fmt.Errorf("scale point %d (%d nodes): %w", ni, n, err)
	}
	tasks, err := workload.GenerateBatch(s.scaleTasks(ni), n, cfg.K, cfg.Sessions)
	if err != nil {
		return nil, fmt.Errorf("scale point %d (%d nodes): %w", ni, n, err)
	}
	return &scaleBench{
		nw:       nw,
		prov:     view.NewOracle(nw, planar.Planarize(nw, cfg.Planarizer)),
		tasks:    tasks,
		buildSec: time.Since(start).Seconds(),
	}, nil
}

// scaleFaultPlans draws the fault arm's crash schedule and per-session
// membership churn from the scaleChurn stream — a pure function of (cfg,
// bench), so every shard count sees the identical plan.
func scaleFaultPlans(cfg ScaleConfig, b *scaleBench) (sim.FaultPlan, sim.ChurnPlan) {
	s := seeds{base: cfg.Seed}
	r := s.scaleChurn(0)
	n := b.nw.Len()
	fp := sim.FaultPlan{LossRate: 0.05, Seed: s.scaleFault(0)}
	for c := 0; c < 3; c++ {
		at := r.Float64() * 0.005
		fp.Crashes = append(fp.Crashes, sim.Crash{
			Node: r.Intn(n), At: at, RecoverAt: at + 0.01,
		})
	}
	var cp sim.ChurnPlan
	for si, task := range b.tasks {
		start := float64(si) * cfg.SessionIntervalSec
		cp.Leaves = append(cp.Leaves, sim.Membership{
			Session: si, Node: task.Dests[0], At: start + r.Float64()*0.01,
		})
		member := map[int]bool{task.Source: true}
		for _, d := range task.Dests {
			member[d] = true
		}
		for try := 0; try < 8; try++ {
			cand := r.Intn(n)
			if member[cand] {
				continue
			}
			cp.Joins = append(cp.Joins, sim.Membership{
				Session: si, Node: cand, At: start + r.Float64()*0.01,
			})
			break
		}
	}
	return fp, cp
}

// runScaleArm runs one arm: a fresh engine over the bench, the sharded
// kernel installed at the run's maximal window, all sessions in one
// concurrent script.
func runScaleArm(cfg ScaleConfig, b *scaleBench, proto string, faulted bool) (ScaleArm, error) {
	arm := ScaleArm{
		Nodes: b.nw.Len(), Proto: proto, Faulted: faulted,
		Tiles: b.nw.Tiles(), Sessions: len(b.tasks), BuildSec: b.buildSec,
	}
	en := sim.NewEngine(b.nw, cfg.engineRadio(), cfg.MaxHops)
	en.SetViews(b.prov)
	if faulted {
		fp, cp := scaleFaultPlans(cfg, b)
		if err := en.SetFaults(fp); err != nil {
			return arm, err
		}
		if err := en.SetARQ(sim.DefaultARQ()); err != nil {
			return arm, err
		}
		if err := en.SetChurn(cp); err != nil {
			return arm, err
		}
	}
	if err := en.SetSharding(sim.ShardConfig{
		Shards: cfg.shards(), Window: sim.Lookahead(en.Radio(), en.ARQ()),
	}); err != nil {
		return arm, err
	}

	script := make([]sim.Session, len(b.tasks))
	for i, task := range b.tasks {
		// A fresh handler per session (stateful handlers must never be
		// shared); PBM runs at a fixed λ, as in the chaos campaign.
		script[i] = sim.Session{
			Start:   float64(i) * cfg.SessionIntervalSec,
			Handler: makeProtocol(b.nw, proto, 0.3),
			Src:     task.Source,
			Dests:   task.Dests,
		}
	}
	start := time.Now()
	metrics := en.RunScript(script)
	arm.RunSec = time.Since(start).Seconds()

	audit := sim.AuditConfig{MaxHops: cfg.MaxHops, AllowDuplicates: concurrentProto(proto)}
	for si := range metrics {
		m := &metrics[si]
		arm.Transmissions += m.Transmissions
		arm.Retransmissions += m.Retransmissions
		arm.LinkFailures += m.LinkFailures
		arm.Acks += m.Acks
		arm.DeliveredDests += len(m.Delivered)
		for _, h := range m.Delivered {
			arm.DeliveredHopsSum += h
		}
		arm.DestCount += m.DestCount
		if m.Failed() {
			arm.FailedSessions++
		}
		for reason, cnt := range m.DropsByReason {
			arm.DropsByReason[reason] += cnt
		}
		for reason, cnt := range m.DestDropsByReason {
			arm.DestDropsByReason[reason] += cnt
		}
		arm.JoinsSpliced += m.JoinsSpliced
		arm.JoinsMissed += m.JoinsMissed
		arm.EnergyJ += m.EnergyJ
		if l := m.MaxLatency(); l > arm.MaxLatencySec {
			arm.MaxLatencySec = l
		}
		if err := sim.AuditTask(&m.TaskMetrics, audit); err != nil {
			arm.Violations = append(arm.Violations, fmt.Sprintf(
				"n=%d %s faulted=%t session%d: %v", arm.Nodes, proto, faulted, si, err))
		}
	}
	if arm.RunSec > 0 {
		arm.HopsPerSec = float64(arm.Transmissions) / arm.RunSec
	}
	arm.PeakRSSBytes = peakRSSBytes()
	return arm, nil
}

// engineRadio resolves the arm radio parameters.
func (cfg ScaleConfig) engineRadio() sim.RadioParams {
	r := cfg.Radio
	r.RangeM = cfg.RadioRange
	return r
}

// RunScale executes the scale sweep. Arms run sequentially — the sharded
// kernel inside each arm is the parallelism, so overlapping arms would only
// contend for cores and muddy the hops/sec readings. The returned report's
// Fingerprint is byte-identical for every Shards value.
func RunScale(cfg ScaleConfig) (*ScaleReport, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rep := &ScaleReport{Shards: cfg.shards()}
	total := len(cfg.NodeCounts) * len(cfg.Protos)
	if cfg.FaultArm {
		total++
	}
	done := 0
	tick := func() {
		done++
		if cfg.Progress != nil {
			cfg.Progress(done, total)
		}
	}
	for ni := range cfg.NodeCounts {
		if cfg.Ctx != nil && cfg.Ctx.Err() != nil {
			return nil, cfg.Ctx.Err()
		}
		b, err := buildScaleBench(cfg, ni)
		if err != nil {
			return nil, err
		}
		for _, proto := range cfg.Protos {
			arm, err := runScaleArm(cfg, b, proto, false)
			if err != nil {
				return nil, err
			}
			rep.Arms = append(rep.Arms, arm)
			tick()
		}
		if ni == 0 && cfg.FaultArm {
			arm, err := runScaleArm(cfg, b, cfg.Protos[0], true)
			if err != nil {
				return nil, err
			}
			rep.Arms = append(rep.Arms, arm)
			tick()
		}
	}
	return rep, nil
}
