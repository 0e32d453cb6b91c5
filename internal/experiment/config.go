// Package experiment is the harness that regenerates every table and figure
// of the paper's §5 evaluation: Figure 11 (total hops), Figure 12
// (per-destination hops), Figure 14 (energy), Figure 15 (failed tasks vs
// density), plus the PBM λ ablation. See DESIGN.md §4 for the experiment
// index.
package experiment

import (
	"context"
	"errors"
	"fmt"
	"runtime"

	"gmp/internal/network"
	"gmp/internal/planar"
	"gmp/internal/routing"
	"gmp/internal/sim"
	"gmp/internal/view"
)

// Protocol identifiers accepted by the harness.
const (
	ProtoGMP   = "GMP"
	ProtoGMPnr = "GMPnr"
	ProtoLGS   = "LGS"
	ProtoLGK   = "LGK"
	ProtoPBM   = "PBM"
	ProtoSMT   = "SMT"
	ProtoGRD   = "GRD"
	// ProtoGMPmst is the A-4 ablation: GMP's routing machinery with the
	// rrSTR tree replaced by a Euclidean MST, isolating the paper's central
	// tree-construction claim.
	ProtoGMPmst = "GMPmst"
	// ProtoGMPsmst is the A-6 ablation arm: GMP over the corner-Steinerized
	// MST — the classical MST-improvement heuristic the paper cites.
	ProtoGMPsmst = "GMPsmst"
)

// AllProtocols lists the paper's protocol set in the order its figures use,
// derived from the routing registry (the Spec PaperRank ordering).
func AllProtocols() []string { return routing.PaperSet() }

// Config describes one experiment campaign. Default reproduces Table 1.
type Config struct {
	// Width and Height of the deployment region in meters.
	Width, Height float64
	// Nodes deployed uniformly at random.
	Nodes int
	// RadioRange in meters.
	RadioRange float64
	// Networks is the number of independent deployments (paper: 10).
	Networks int
	// TasksPerNet is the number of multicast tasks per deployment and
	// per destination-count value (paper: 100).
	TasksPerNet int
	// Ks is the sweep of destination counts (paper: 3 to 25).
	Ks []int
	// MaxHops is the per-packet hop budget (paper §5.4: 100).
	MaxHops int
	// Seed makes the whole campaign reproducible.
	Seed int64
	// Lambdas is PBM's trade-off sweep; per task the λ minimizing total
	// hops is kept, as in §5.1.
	Lambdas []float64
	// Planarizer selects the graph used by perimeter mode.
	Planarizer planar.Kind
	// Radio carries the physical-layer constants (Table 1).
	Radio sim.RadioParams
	// Faults injects link loss into every engine the campaign builds. Its
	// Seed is re-derived per task so tasks see independent loss patterns;
	// leave it zero for the paper's ideal collision-free MAC.
	Faults sim.FaultPlan
	// CrashFraction, when positive, crashes that fraction of each
	// deployment's nodes at random virtual times in the first 20 ms of
	// every task (schedule derived deterministically from Seed).
	CrashFraction float64
	// ARQ enables hop-by-hop acknowledged delivery in every engine.
	ARQ sim.ARQConfig
	// Workers bounds the campaign runner's worker pool — the maximum
	// number of (network × sweep-point) cells simulated concurrently.
	// Zero means runtime.NumCPU(); output is identical for any value.
	Workers int `json:",omitempty"`
	// Progress, when non-nil, observes campaign progress: the runner calls
	// it after every completed cell with (completed, total). Calls are
	// serialized. Not part of the JSON config surface.
	Progress ProgressFunc `json:"-"`
	// Ctx, when non-nil, cancels the campaign: the runner stops handing out
	// cells once Ctx is done and the driver returns Ctx's error. In-flight
	// cells finish (a cell is pure compute; there is nothing to interrupt
	// mid-cell), so cancellation is prompt at cell granularity and leaks no
	// goroutines. Nil means run to completion. Not part of the JSON config
	// surface.
	Ctx context.Context `json:"-"`
	// Views, when non-nil, builds the per-node view provider handed to the
	// forwarding decisions of every engine the campaign constructs, from the
	// engine's network (whose positions may be overlaid with reported or
	// noisy ones) and the perimeter substrate. Nil selects the ideal oracle.
	// Each engine gets its own provider — providers are not safe to share
	// across the runner's parallel cells. Not part of the JSON config
	// surface.
	Views func(nw *network.Network, pg *planar.Graph) view.Provider `json:"-"`
}

// views resolves the Views knob for one engine's network and substrate.
func (c Config) views(nw *network.Network, pg *planar.Graph) view.Provider {
	if c.Views != nil {
		return c.Views(nw, pg)
	}
	return view.NewOracle(nw, pg)
}

// workerCount resolves the Workers knob to a concrete pool size.
func (c Config) workerCount() int {
	if c.Workers > 0 {
		return c.Workers
	}
	if n := runtime.NumCPU(); n > 1 {
		return n
	}
	return 1
}

// engineRadio returns the radio parameters with the campaign's range
// applied — the physics every engine the campaign builds runs under.
func (c Config) engineRadio() sim.RadioParams {
	r := c.Radio
	r.RangeM = c.RadioRange
	return r
}

// Default returns the paper's Table 1 setup.
func Default() Config {
	return Config{
		Width:       1000,
		Height:      1000,
		Nodes:       1000,
		RadioRange:  150,
		Networks:    10,
		TasksPerNet: 100,
		Ks:          []int{3, 5, 8, 12, 16, 20, 25},
		MaxHops:     100,
		Seed:        1,
		Lambdas:     []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6},
		Planarizer:  planar.Gabriel,
		Radio:       sim.DefaultRadioParams(),
	}
}

// Quick returns a scaled-down campaign for tests and smoke runs: same
// geometry and protocols, fewer networks/tasks/Ks.
func Quick() Config {
	cfg := Default()
	cfg.Nodes = 400
	cfg.Networks = 2
	cfg.TasksPerNet = 8
	cfg.Ks = []int{4, 8}
	cfg.Lambdas = []float64{0, 0.3, 0.6}
	cfg.Seed = 7
	return cfg
}

// Validation errors.
var (
	ErrNoKs        = errors.New("experiment: empty K sweep")
	ErrNoNetworks  = errors.New("experiment: need at least one network")
	ErrNoTasks     = errors.New("experiment: need at least one task per network")
	ErrNoLambdas   = errors.New("experiment: PBM requested with empty lambda sweep")
	ErrBadProtocol = errors.New("experiment: unknown protocol")
	ErrBadWorkers  = errors.New("experiment: negative worker count")
)

// Validate checks the configuration for the given protocol list.
func (c Config) Validate(protos []string) error {
	if len(c.Ks) == 0 {
		return ErrNoKs
	}
	if c.Networks < 1 {
		return ErrNoNetworks
	}
	if c.TasksPerNet < 1 {
		return ErrNoTasks
	}
	if c.Workers < 0 {
		return fmt.Errorf("%w: %d", ErrBadWorkers, c.Workers)
	}
	if err := c.Faults.Validate(c.Nodes); err != nil {
		return err
	}
	if err := c.ARQ.Validate(); err != nil {
		return err
	}
	if c.CrashFraction < 0 || c.CrashFraction >= 1 {
		return fmt.Errorf("experiment: CrashFraction %v outside [0, 1)", c.CrashFraction)
	}
	for _, p := range protos {
		sp, ok := routing.Lookup(p)
		if !ok {
			return fmt.Errorf("%w: %q", ErrBadProtocol, p)
		}
		if sp.Flags&routing.FlagLambda != 0 && len(c.Lambdas) == 0 {
			return ErrNoLambdas
		}
	}
	return nil
}
