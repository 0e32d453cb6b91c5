// Command gmpsim regenerates the paper's evaluation figures (Wu & Candan,
// "GMP: Distributed Geographic Multicast Routing in Wireless Sensor
// Networks", ICDCS 2006) on the library's discrete-event simulator.
//
// Usage:
//
//	gmpsim -experiment totalhops            # Figure 11
//	gmpsim -experiment perdest              # Figure 12
//	gmpsim -experiment energy               # Figure 14
//	gmpsim -experiment failures             # Figure 15
//	gmpsim -experiment loss                 # Figure 15 under link loss, ± ARQ
//	gmpsim -experiment lambda               # PBM λ ablation (A-3)
//	gmpsim -experiment setup                # Table 1 parameters
//	gmpsim -experiment scale -shards 4      # E-X10: 10⁴ → 10⁶ nodes, sharded kernel
//	gmpsim -experiment delivery             # E-X12: delivery guarantee on adversarial topologies
//	gmpsim -experiment serve                # E-X13: gmpd under overload and transport chaos
//	gmpsim -experiment stream               # E-X14: streamed routes vs per-hop, memo cache on/off
//	gmpsim -experiment all                  # setup + Figures 11/12/14 + failure rate + Figure 15
//
// Experiments come from the campaign registry (internal/experiment). The
// -quick flag runs a scaled-down campaign (seconds instead of minutes); -csv
// switches output to CSV for plotting. -protocols replaces the protocol list
// of every experiment that takes one. The main-config flags -config, -nodes,
// -networks, -tasks, -ks and the fault flags -loss, -edgeloss, -crash, -arq
// apply to setup, totalhops, perdest, energy, lambda, compare and all; the
// other experiments run on their own configs and reject them, except that
// loss takes -arq for its +arq arms.
//
// Every experiment runs on the campaign runner's bounded worker pool;
// -workers caps the pool (0 = one worker per CPU) and -progress renders a
// live cells-completed counter on stderr. Output is byte-identical for any
// worker count.
//
// Profiling: -cpuprofile, -memprofile and -trace write the standard pprof /
// runtime-trace artifacts for the whole run; -pprof addr serves
// net/http/pprof on addr for live inspection of long campaigns, e.g.
//
//	gmpsim -experiment all -pprof localhost:6060 &
//	go tool pprof http://localhost:6060/debug/pprof/profile
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"

	"gmp/internal/experiment"
	"gmp/internal/profiling"
	"gmp/internal/routing"
	"gmp/internal/sim"
	"gmp/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gmpsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("gmpsim", flag.ContinueOnError)
	var (
		exp      = fs.String("experiment", "all", strings.Join(experiment.CampaignNames(), "|"))
		quick    = fs.Bool("quick", false, "scaled-down campaign for smoke runs")
		csv      = fs.Bool("csv", false, "emit CSV instead of aligned tables")
		jsonOut  = fs.Bool("json", false, "emit JSON instead of aligned tables")
		seed     = fs.Int64("seed", 0, "override campaign seed (0 = config default)")
		nodes    = fs.Int("nodes", 0, "override node count (0 = config default)")
		networks = fs.Int("networks", 0, "override number of deployments")
		tasks    = fs.Int("tasks", 0, "override tasks per deployment")
		ks       = fs.String("ks", "", "override destination-count sweep, e.g. 3,5,10")
		protos   = fs.String("protocols", "", "comma-separated protocol subset (default: the experiment's set; registered: "+
			strings.Join(routing.Names(), ",")+")")
		confPath = fs.String("config", "", "JSON campaign config file (see -dumpconfig for the schema)")
		dumpConf = fs.Bool("dumpconfig", false, "print the effective campaign config as JSON and exit")
		pair     = fs.String("pair", "GMP,LGS", "for -experiment compare: the two protocols, A,B")
		kFlag    = fs.Int("k", 12, "for -experiment compare: destination count")
		outDir   = fs.String("outdir", "", "also write each table as <outdir>/<slug>.json and .csv")
		loss     = fs.Float64("loss", 0, "inject uniform per-link loss with this probability into every engine")
		edgeLoss = fs.Float64("edgeloss", 0, "inject distance-dependent loss: this probability at full radio range, scaled (d/R)^2")
		crash    = fs.Float64("crash", 0, "crash this fraction of nodes at random times early in each task")
		arq      = fs.Bool("arq", false, "enable hop-by-hop ARQ (ACKs + retransmissions)")
		workers  = fs.Int("workers", 0, "max concurrent simulation cells (0 = one per CPU); output is identical for any value")
		shards   = fs.Int("shards", 0, "for -experiment scale: sharded-kernel worker count (0 = one per CPU); deterministic output is identical for any value")
		progress = fs.Bool("progress", false, "render a live cells-completed counter on stderr")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile to this file on exit")
		traceOut = fs.String("trace", "", "write a runtime execution trace to this file")
		pprofSrv = fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) for live inspection")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	stopProf, err := profiling.Start(profiling.Config{
		CPUProfile: *cpuProf, MemProfile: *memProf,
		Trace: *traceOut, PprofAddr: *pprofSrv, Name: "gmpsim"})
	if err != nil {
		return err
	}
	defer stopProf()

	// SIGINT/SIGTERM cancel the campaign between cells: the runner stops
	// handing out work, in-flight cells finish, and the run exits with the
	// context's error instead of an interrupted half-written table.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	com := experiment.Common{Ctx: ctx, Quick: *quick, Seed: *seed, Workers: *workers,
		Shards: *shards, ARQ: *arq, Pair: *pair, K: *kFlag}
	if *progress {
		com.Progress = progressPrinter(os.Stderr)
	}
	if *protos != "" {
		com.Protocols = strings.Split(*protos, ",")
	}
	cfg := com.Main()
	if *confPath != "" {
		data, err := os.ReadFile(*confPath)
		if err != nil {
			return fmt.Errorf("-config: %w", err)
		}
		if err := json.Unmarshal(data, &cfg); err != nil {
			return fmt.Errorf("-config %s: %w", *confPath, err)
		}
	}
	if *nodes != 0 {
		cfg.Nodes = *nodes
	}
	if *networks != 0 {
		cfg.Networks = *networks
	}
	if *tasks != 0 {
		cfg.TasksPerNet = *tasks
	}
	if *ks != "" {
		parsed, err := parseInts(*ks)
		if err != nil {
			return fmt.Errorf("-ks: %w", err)
		}
		cfg.Ks = parsed
	}
	// Nonzero values pass through even when negative, so validation can
	// reject them instead of the flag being silently ignored.
	if *loss != 0 {
		cfg.Faults.LossRate = *loss
	}
	if *edgeLoss != 0 {
		cfg.Faults.EdgeLoss = *edgeLoss
	}
	if *crash != 0 {
		cfg.CrashFraction = *crash
	}
	if *arq {
		cfg.ARQ = sim.DefaultARQ()
	}
	com.Config = &cfg
	if *dumpConf {
		data, err := json.MarshalIndent(com.Main(), "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintln(out, string(data))
		return nil
	}

	cp, ok := experiment.LookupCampaign(*exp)
	if !ok {
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	// A main-config flag on a campaign that runs on its own config would
	// change nothing; say so instead of printing an unaffected run.
	var ignored []string
	fs.Visit(func(f *flag.Flag) {
		if slices.Contains(experiment.MainConfigFlags, f.Name) && !slices.Contains(cp.Flags, f.Name) {
			ignored = append(ignored, "-"+f.Name)
		}
	})
	if len(ignored) > 0 {
		return fmt.Errorf("-experiment %s runs on its own config and does not honour %s",
			cp.Name, strings.Join(ignored, ", "))
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return fmt.Errorf("-outdir: %w", err)
		}
	}
	rep, err := cp.Run(com)
	if err != nil {
		return err
	}
	fmt.Fprint(out, rep.Text)
	for _, t := range rep.Tables {
		switch {
		case *jsonOut:
			data, err := json.Marshal(t)
			if err != nil {
				return err
			}
			fmt.Fprintln(out, string(data))
		case *csv:
			fmt.Fprint(out, t.CSV())
		default:
			fmt.Fprintln(out, t.Render())
		}
		if *outDir != "" {
			if err := writeArtifacts(*outDir, t); err != nil {
				return err
			}
		}
	}
	if n := len(rep.Violations); n > 0 {
		return fmt.Errorf("%s: %d invariant violations", cp.Name, n)
	}
	return nil
}

// progressPrinter renders a live "done/total cells" counter on w, ending
// the line when the campaign completes. The runner serializes calls.
func progressPrinter(w io.Writer) experiment.ProgressFunc {
	return func(done, total int) {
		fmt.Fprintf(w, "\r%d/%d cells", done, total)
		if done == total {
			fmt.Fprintln(w)
		}
	}
}

// writeArtifacts saves a table as both JSON and CSV under dir, named by a
// slug of its title.
func writeArtifacts(dir string, t *stats.Table) error {
	slug := slugify(t.Title)
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, slug+".json"), data, 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, slug+".csv"), []byte(t.CSV()), 0o644)
}

// slugify reduces a table title to a safe file stem.
func slugify(title string) string {
	var b strings.Builder
	lastDash := false
	for _, r := range strings.ToLower(title) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
			lastDash = false
		default:
			if !lastDash && b.Len() > 0 {
				b.WriteByte('-')
				lastDash = true
			}
		}
	}
	return strings.TrimSuffix(b.String(), "-")
}

func parseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
