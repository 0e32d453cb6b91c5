package experiment

import (
	"context"
	"fmt"
	"strings"

	"gmp/internal/sim"
	"gmp/internal/stats"
)

// This file is the campaign registry: the one table of every experiment —
// name, default protocols, honoured main-config flags, config choice and
// report. gmpsim, gmpreport and the quick goldens all run through it.

// Common is what every campaign run shares: the run-level settings and the
// main config the paper's Figures 11/12/14 run on.
type Common struct {
	// Ctx, when non-nil, cancels the run (see Config.Ctx).
	Ctx context.Context
	// Quick selects every campaign's scaled-down Quick config.
	Quick bool
	// Seed, when nonzero, overrides the main config's seed. Campaigns with
	// a seed of their own (delivery, serve, stream) take it only when
	// nonzero; every other campaign runs on the main config's seed.
	Seed int64
	// Workers caps the campaign runner's pool (0 = one worker per CPU).
	Workers int
	// Progress, when non-nil, observes campaign progress.
	Progress ProgressFunc
	// Protocols, when non-nil, replaces the campaign's default list. It is
	// an error for a campaign that takes no list.
	Protocols []string
	// Config is the main config; nil means Default() (Quick() when Quick).
	Config *Config
	// Shards is the scale campaign's kernel worker count (0 = one per CPU).
	Shards int
	// ARQ runs the loss campaign's sweep with hop-by-hop ARQ.
	ARQ bool
	// Pair ("A,B") and K are the compare campaign's protocols and
	// destination count.
	Pair string
	K    int
}

// Main returns the main config with the run-level settings applied.
func (c Common) Main() Config {
	cfg := pick(c, Default, Quick)
	if c.Config != nil {
		cfg = *c.Config
	}
	cfg.Seed = c.seedOr(cfg.Seed)
	if c.Workers != 0 {
		cfg.Workers = c.Workers
	}
	cfg.Progress, cfg.Ctx = c.Progress, c.Ctx
	return cfg
}

// seedOr returns the Seed override, or seed when there is none.
func (c Common) seedOr(seed int64) int64 {
	if c.Seed != 0 {
		return c.Seed
	}
	return seed
}

// inherit gives a campaign that runs on its own config the run-level
// settings: the main config's seed, the worker cap, progress and
// cancellation.
func (c Common) inherit(base *Config) {
	m := c.Main()
	base.Seed, base.Workers, base.Progress, base.Ctx = m.Seed, m.Workers, m.Progress, m.Ctx
}

// pick returns the campaign's Quick config under Quick, else its full one.
func pick[T any](c Common, full, quick func() T) T {
	if c.Quick {
		return quick()
	}
	return full()
}

// Report is one campaign run's output.
type Report struct {
	// Text is printed before the tables in every output format: Table 1
	// for setup and all, the whole rendering for campaigns without tables.
	Text string
	// Tables are the campaign's tables, in print order.
	Tables []*stats.Table
	// Fingerprint is the run's deterministic digest: the rendered report,
	// or only the run-stable fields for campaigns that print wall-clock
	// measurements (scale, serve, stream).
	Fingerprint string
	// Violations lists every oracle violation; a run with any has failed.
	Violations []string
}

// Render is the report as plain text: Text, then every table, each
// followed by a blank line.
func (r *Report) Render() string {
	var b strings.Builder
	b.WriteString(r.Text)
	for _, t := range r.Tables {
		b.WriteString(t.Render())
		b.WriteString("\n")
	}
	return b.String()
}

// oracleVerdict renders a report's oracle block: label then pass when there
// are no violations, else label, the FAIL count and every violation on a
// line of its own.
func oracleVerdict(label, pass string, violations []string) string {
	if len(violations) == 0 {
		return label + pass
	}
	s := fmt.Sprintf("%sFAIL (%d violations)\n", label, len(violations))
	for _, v := range violations {
		s += "    " + v + "\n"
	}
	return s
}

// Campaign is one registered experiment.
type Campaign struct {
	// Name is the identifier gmpsim's -experiment flag takes.
	Name string
	// Protocols is the default protocol list; nil for campaigns that take
	// none.
	Protocols []string
	// Flags lists the main-config flags (MainConfigFlags) the campaign
	// honours. A campaign on its own config honours none of them.
	Flags []string
	run   func(c Common, protos []string) (*Report, error)
}

// MainConfigFlags are gmpsim's flags that edit the main config. Only the
// campaigns that run on it (and loss, for -arq) honour them.
var MainConfigFlags = []string{"config", "nodes", "networks", "tasks", "ks", "loss", "edgeloss", "crash", "arq"}

// Run executes the campaign.
func (cp Campaign) Run(c Common) (*Report, error) {
	protos := cp.Protocols
	if c.Protocols != nil {
		if cp.Protocols == nil {
			return nil, fmt.Errorf("experiment %s takes no protocol list", cp.Name)
		}
		protos = c.Protocols
	}
	rep, err := cp.run(c, protos)
	if err != nil {
		return nil, err
	}
	if rep.Fingerprint == "" {
		rep.Fingerprint = rep.Render()
	}
	return rep, nil
}

// campaigns is the registry, in gmpsim's usage order.
var campaigns []Campaign

// CampaignNames lists the registered campaign names, in usage order.
func CampaignNames() []string {
	names := make([]string, len(campaigns))
	for i, cp := range campaigns {
		names[i] = cp.Name
	}
	return names
}

// LookupCampaign returns the campaign registered under name.
func LookupCampaign(name string) (Campaign, bool) {
	for _, cp := range campaigns {
		if cp.Name == name {
			return cp, true
		}
	}
	return Campaign{}, false
}

// tables wraps a table campaign's output.
func tables(ts ...*stats.Table) *Report { return &Report{Tables: ts} }

// mainTable runs Figures 11/12/14 on the main config and reports the table
// sel picks.
func mainTable(sel func(*Results) *stats.Table) func(Common, []string) (*Report, error) {
	return func(c Common, protos []string) (*Report, error) {
		res, err := RunMain(c.Main(), protos)
		if err != nil {
			return nil, err
		}
		return tables(sel(res)), nil
	}
}

// init fills the registry. (A var initializer would be an initialization
// cycle: all runs failures through LookupCampaign.)
func init() {
	paper4 := []string{ProtoGMP, ProtoPBM, ProtoLGS, ProtoGRD}
	campaigns = []Campaign{
		{Name: "setup", Flags: MainConfigFlags, run: func(c Common, _ []string) (*Report, error) {
			return &Report{Text: setupText(c.Main())}, nil
		}},
		{Name: "totalhops", Protocols: AllProtocols(), Flags: MainConfigFlags,
			run: mainTable(func(r *Results) *stats.Table { return r.TotalHops })},
		{Name: "perdest", Protocols: AllProtocols(), Flags: MainConfigFlags,
			run: mainTable(func(r *Results) *stats.Table { return r.PerDestHops })},
		{Name: "energy", Protocols: AllProtocols(), Flags: MainConfigFlags,
			run: mainTable(func(r *Results) *stats.Table { return r.Energy })},
		{Name: "failures", Protocols: []string{ProtoPBM, ProtoLGS, ProtoGMP}, run: func(c Common, protos []string) (*Report, error) {
			fc := pick(c, DefaultFailureConfig, QuickFailureConfig)
			c.inherit(&fc.Base)
			t, err := RunFailures(fc, protos)
			return tables(t), err
		}},
		{Name: "loss", Protocols: []string{ProtoGMP, ProtoPBM, ProtoLGS}, Flags: []string{"arq"},
			run: func(c Common, protos []string) (*Report, error) {
				lc := pick(c, DefaultLossConfig, QuickLossConfig)
				c.inherit(&lc.Base)
				if c.ARQ {
					lc.ARQ = sim.DefaultARQ()
				}
				res, err := RunLoss(lc, protos)
				if err != nil {
					return nil, err
				}
				return tables(res.Failures, res.Transmissions, res.Energy), nil
			}},
		{Name: "lambda", Flags: MainConfigFlags, run: func(c Common, _ []string) (*Report, error) {
			cfg := c.Main()
			k := 12
			if len(cfg.Ks) > 0 {
				k = cfg.Ks[len(cfg.Ks)/2]
			}
			t, err := LambdaSweep(cfg, k)
			return tables(t), err
		}},
		{Name: "compare", Flags: MainConfigFlags, run: func(c Common, _ []string) (*Report, error) {
			a, b, ok := strings.Cut(c.Pair, ",")
			if !ok || strings.Contains(b, ",") {
				return nil, fmt.Errorf("-pair wants A,B; got %q", c.Pair)
			}
			res, err := CompareProtocols(c.Main(), strings.TrimSpace(a), strings.TrimSpace(b), c.K)
			if err != nil {
				return nil, err
			}
			return &Report{Text: res.String()}, nil
		}},
		{Name: "robustness", Protocols: paper4, run: func(c Common, protos []string) (*Report, error) {
			rc := pick(c, DefaultRobustnessConfig, QuickRobustnessConfig)
			c.inherit(&rc.Base)
			t, err := RunRobustness(rc, protos)
			return tables(t), err
		}},
		{Name: "localization", Protocols: paper4, run: func(c Common, protos []string) (*Report, error) {
			lc := pick(c, DefaultLocalizationConfig, QuickLocalizationConfig)
			c.inherit(&lc.Base)
			res, err := RunLocalization(lc, protos)
			if err != nil {
				return nil, err
			}
			return tables(res.Delivery, res.TotalHops), nil
		}},
		{Name: "staleness", Protocols: paper4, run: func(c Common, protos []string) (*Report, error) {
			sc := pick(c, DefaultStalenessConfig, QuickStalenessConfig)
			c.inherit(&sc.Base)
			t, err := RunStaleness(sc, protos)
			return tables(t), err
		}},
		{Name: "lifetime", Protocols: paper4, run: func(c Common, protos []string) (*Report, error) {
			lc := pick(c, DefaultLifetimeConfig, QuickLifetimeConfig)
			c.inherit(&lc.Base)
			res, err := RunLifetime(lc, protos)
			if err != nil {
				return nil, err
			}
			return tables(res.FirstDeath, res.FirstFailure), nil
		}},
		{Name: "load", Protocols: []string{ProtoGMP, ProtoPBM, ProtoGRD}, run: func(c Common, protos []string) (*Report, error) {
			lc := pick(c, DefaultLoadConfig, QuickLoadConfig)
			c.inherit(&lc.Base)
			t, err := RunLoad(lc, protos)
			return tables(t), err
		}},
		{Name: "beaconing", run: func(c Common, _ []string) (*Report, error) {
			bc := pick(c, DefaultBeaconConfig, QuickBeaconConfig)
			c.inherit(&bc.Base)
			res, err := RunBeaconing(bc)
			if err != nil {
				return nil, err
			}
			return tables(res.PosError, res.MissingFrac, res.EnergyPerHour), nil
		}},
		{Name: "clustering", Protocols: paper4, run: func(c Common, protos []string) (*Report, error) {
			cc := pick(c, DefaultClusteringConfig, QuickClusteringConfig)
			c.inherit(&cc.Base)
			t, err := RunClustering(cc, protos)
			return tables(t), err
		}},
		{Name: "chaos", Protocols: DefaultChaosConfig().Protos, run: func(c Common, protos []string) (*Report, error) {
			cc := pick(c, DefaultChaosConfig, QuickChaosConfig)
			c.inherit(&cc.Base)
			cc.Protos = protos
			rep, err := RunChaos(cc)
			if err != nil {
				return nil, err
			}
			return &Report{Text: rep.Render(), Violations: rep.Violations}, nil
		}},
		{Name: "churn", Protocols: DefaultChurnConfig().Protos, run: func(c Common, protos []string) (*Report, error) {
			cc := pick(c, DefaultChurnConfig, QuickChurnConfig)
			c.inherit(&cc.Base)
			cc.Protos = protos
			rep, err := RunChurn(cc)
			if err != nil {
				return nil, err
			}
			return &Report{Text: rep.Render(), Violations: rep.Violations}, nil
		}},
		{Name: "scale", Protocols: DefaultScaleConfig().Protos, run: func(c Common, protos []string) (*Report, error) {
			sc := pick(c, DefaultScaleConfig, QuickScaleConfig)
			m := c.Main()
			sc.Seed, sc.Progress, sc.Ctx = m.Seed, m.Progress, m.Ctx
			sc.Shards = c.Shards
			sc.Protos = protos
			rep, err := RunScale(sc)
			if err != nil {
				return nil, err
			}
			return &Report{Text: rep.Render(), Fingerprint: rep.Fingerprint(), Violations: rep.Violations()}, nil
		}},
		{Name: "delivery", Protocols: DefaultDeliveryConfig().Protos, run: func(c Common, protos []string) (*Report, error) {
			dc := pick(c, DefaultDeliveryConfig, QuickDeliveryConfig)
			dc.Seed, dc.Progress, dc.Ctx = c.seedOr(dc.Seed), c.Progress, c.Ctx
			dc.Protos = protos
			rep, err := RunDelivery(dc)
			if err != nil {
				return nil, err
			}
			return &Report{Text: rep.Render(), Violations: rep.Violations()}, nil
		}},
		{Name: "serve", run: func(c Common, _ []string) (*Report, error) {
			sc := pick(c, DefaultServeConfig, QuickServeConfig)
			sc.Seed, sc.Progress, sc.Ctx = c.seedOr(sc.Seed), c.Progress, c.Ctx
			rep, err := RunServe(sc)
			if err != nil {
				return nil, err
			}
			return &Report{Text: rep.Render(), Fingerprint: rep.Fingerprint(), Violations: rep.Violations()}, nil
		}},
		{Name: "stream", run: func(c Common, _ []string) (*Report, error) {
			tc := pick(c, DefaultStreamConfig, QuickStreamConfig)
			tc.Seed, tc.Progress, tc.Ctx = c.seedOr(tc.Seed), c.Progress, c.Ctx
			rep, err := RunStream(tc)
			if err != nil {
				return nil, err
			}
			return &Report{Text: rep.Render(), Fingerprint: rep.Fingerprint(), Violations: rep.Violations()}, nil
		}},
		// all is Table 1, the four main-config tables (Figures 11/12/14 and
		// the failure rate) and Figure 15 — not every campaign.
		{Name: "all", Protocols: AllProtocols(), Flags: MainConfigFlags, run: func(c Common, protos []string) (*Report, error) {
			res, err := RunMain(c.Main(), protos)
			if err != nil {
				return nil, err
			}
			failures, _ := LookupCampaign("failures")
			fig15, err := failures.Run(c)
			if err != nil {
				return nil, err
			}
			return &Report{Text: setupText(c.Main()), Tables: append([]*stats.Table{
				res.TotalHops, res.PerDestHops, res.Energy, res.FailureRate}, fig15.Tables...)}, nil
		}},
	}
}

// setupText renders Table 1 for cfg.
func setupText(cfg Config) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Table 1: simulation setup")
	fmt.Fprintf(&b, "  Network size        %.0fm x %.0fm\n", cfg.Width, cfg.Height)
	fmt.Fprintf(&b, "  Number of nodes     %d\n", cfg.Nodes)
	fmt.Fprintf(&b, "  Channel data rate   %.0f Mbps\n", cfg.Radio.DataRateBps/1e6)
	fmt.Fprintf(&b, "  Transmission power  %.1f W\n", cfg.Radio.TxPowerW)
	fmt.Fprintf(&b, "  Receiving power     %.1f W\n", cfg.Radio.RxPowerW)
	fmt.Fprintf(&b, "  Message size        %d B\n", cfg.Radio.MessageBytes)
	fmt.Fprintf(&b, "  Radio range         %.0f m\n", cfg.RadioRange)
	fmt.Fprintf(&b, "  Networks x tasks    %d x %d\n", cfg.Networks, cfg.TasksPerNet)
	fmt.Fprintf(&b, "  Destination sweep   %v\n", cfg.Ks)
	fmt.Fprintf(&b, "  Hop budget          %d\n", cfg.MaxHops)
	fmt.Fprintf(&b, "  Seed                %d\n", cfg.Seed)
	fmt.Fprintln(&b)
	return b.String()
}
