// Command gmpreport runs the full reproduction campaign and writes a
// self-contained HTML report with charts of every figure: the shareable
// artifact of a reproduction run.
//
// Usage:
//
//	gmpreport -o report.html            # full Table 1 campaign (minutes)
//	gmpreport -quick -o report.html     # scaled-down smoke campaign
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"gmp/internal/experiment"
	"gmp/internal/report"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gmpreport:", err)
		os.Exit(1)
	}
}

// section is one campaign in the report: the registry name, the protocol
// subset the report charts (nil = the campaign's default), and one caption
// per campaign table ("" leaves that table out).
type section struct {
	campaign  string
	protocols []string
	captions  []string
}

// paper is the §5 reproduction: Figures 11, 12, 14 and 15 (all's failure-rate
// table is left out) and the λ trade-off.
var paper = []section{
	{campaign: "all", captions: []string{
		"Paper claim: GMP lowest; reduction vs PBM and LGS up to 25%.",
		"Paper claim: PBM ≈ GMP ≈ SMT close to GRD; LGS clearly worse.",
		"Paper claim: energy mirrors total hops; GMP saves ~25% vs PBM/LGS.",
		"",
		"Paper claim: failures rise as density falls; LGS worst, GMP best. " +
			"Densities below the paper's 400-node floor exercise the geometric-void regime (ideal MAC).",
	}},
	{campaign: "lambda", captions: []string{
		"PBM's λ trade-off (§5.1): larger λ merges copies at the cost of per-destination progress."}},
}

// extensions are the E-X campaigns -extensions adds.
var extensions = []section{
	{campaign: "robustness", protocols: []string{experiment.ProtoGMP, experiment.ProtoLGS, experiment.ProtoGRD},
		captions: []string{"E-X1: random radio failures; stateless protocols degrade gracefully."}},
	{campaign: "localization", protocols: []string{experiment.ProtoGMP, experiment.ProtoLGS, experiment.ProtoGRD},
		captions: []string{"E-X2: GPS error on reported positions; physics truthful.",
			"E-X2: detour cost of misjudged progress."}},
	{campaign: "staleness", protocols: []string{experiment.ProtoGMP, experiment.ProtoGRD},
		captions: []string{"E-X3: destination coordinates stale under random-waypoint mobility."}},
	{campaign: "load", protocols: []string{experiment.ProtoGMP, experiment.ProtoGRD},
		captions: []string{"E-X5: delivery latency under concurrent sessions (half-duplex senders)."}},
	{campaign: "beaconing", captions: []string{
		"E-X6: neighbor-table position error vs beacon period.",
		"",
		"E-X6: the control-plane energy that buys it."}},
	{campaign: "clustering", protocols: []string{experiment.ProtoGMP, experiment.ProtoGRD},
		captions: []string{"E-X7: multicast's advantage grows as destinations cluster."}},
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("gmpreport", flag.ContinueOnError)
	var (
		out   = fs.String("o", "report.html", "output HTML file (- for stdout)")
		quick = fs.Bool("quick", false, "scaled-down campaign")
		seed  = fs.Int64("seed", 0, "override campaign seed")
		ext   = fs.Bool("extensions", false, "include the E-X robustness/localization/staleness extensions (slower)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	com := experiment.Common{Quick: *quick, Seed: *seed}
	cfg := com.Main()
	rep := report.New(
		"GMP reproduction report",
		fmt.Sprintf("Wu & Candan, ICDCS 2006 — %d nodes, %d networks × %d tasks, seed %d",
			cfg.Nodes, cfg.Networks, cfg.TasksPerNet, cfg.Seed),
	)

	sections := paper
	if *ext {
		sections = append(sections[:len(sections):len(sections)], extensions...)
	}
	for _, s := range sections {
		cp, ok := experiment.LookupCampaign(s.campaign)
		if !ok {
			return fmt.Errorf("no campaign %q", s.campaign)
		}
		com.Protocols = s.protocols
		res, err := cp.Run(com)
		if err != nil {
			return err
		}
		for i, caption := range s.captions {
			if caption != "" {
				rep.Add(res.Tables[i], caption)
			}
		}
	}

	html := rep.HTML(time.Now())
	if *out == "-" {
		_, err := io.WriteString(stdout, html)
		return err
	}
	if err := os.WriteFile(*out, []byte(html), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s (%d sections)\n", *out, rep.Len())
	return nil
}
