// Command gmptrace runs one multicast task on a random deployment and prints
// every transmission, so the hop-by-hop behavior of each protocol can be
// inspected (greedy grouping, splits, perimeter-mode detours).
//
// Usage:
//
//	gmptrace -protocol GMP -nodes 600 -k 5 -seed 42
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strings"

	"gmp"
	"gmp/internal/routing"
	"gmp/internal/trace"
	"gmp/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gmptrace:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("gmptrace", flag.ContinueOnError)
	var (
		protoName = fs.String("protocol", "GMP", "registered protocol to trace: "+strings.Join(routing.Names(), "|"))
		nodes     = fs.Int("nodes", 600, "deployed node count")
		k         = fs.Int("k", 5, "number of destinations")
		seed      = fs.Int64("seed", 1, "deployment and task seed")
		lambda    = fs.Float64("lambda", 0.3, "PBM trade-off parameter")
		maxHops   = fs.Int("maxhops", 100, "per-packet hop budget")
		dot       = fs.Bool("dot", false, "emit the forwarding structure as Graphviz DOT instead of text")
		jsonOut   = fs.Bool("json", false, "emit the route analysis as JSON instead of text")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	r := rand.New(rand.NewSource(*seed))
	deployed := gmp.DeployUniform(*nodes, 1000, 1000, r)
	nw, err := gmp.NewNetwork(deployed, 1000, 1000, 150)
	if err != nil {
		return err
	}
	sys := gmp.NewSystem(nw, gmp.WithMaxHops(*maxHops))

	proto, err := routing.MakeFold(*protoName, routing.Ctx{Network: nw, Lambda: *lambda, LambdaSet: true})
	if err != nil {
		return err
	}

	task, err := workload.Generate(r, *nodes, *k)
	if err != nil {
		return err
	}

	if !*dot && !*jsonOut {
		fmt.Fprintf(out, "protocol %s, %d nodes, seed %d\n", proto.Name(), *nodes, *seed)
		fmt.Fprintf(out, "source %d at %v\n", task.Source, nw.Pos(task.Source))
		for _, d := range task.Dests {
			fmt.Fprintf(out, "dest   %d at %v\n", d, nw.Pos(d))
		}
		fmt.Fprintln(out)
	}

	res, events := sys.Trace(proto, task.Source, task.Dests)
	if *dot || *jsonOut {
		a, err := trace.Analyze(nw, task.Source, events, res.Delivered)
		if err != nil {
			return err
		}
		if *dot {
			fmt.Fprint(out, a.DOT())
			return nil
		}
		data, err := a.JSON()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, string(data))
		return nil
	}
	for i, ev := range events {
		mode := "greedy"
		if ev.Perimeter {
			mode = "perimeter"
		}
		fmt.Fprintf(out, "#%03d t=%.4fms  %4d -> %-4d hops=%-3d %-9s dests=%v\n",
			i+1, ev.Time*1000, ev.From, ev.To, ev.Hops, mode, ev.Dests)
	}
	fmt.Fprintln(out)
	fmt.Fprintf(out, "transmissions: %d   energy: %.4f J   drops: %d\n",
		res.Transmissions, res.EnergyJ, res.Drops())
	delivered := make([]int, 0, len(res.Delivered))
	for d := range res.Delivered {
		delivered = append(delivered, d)
	}
	sort.Ints(delivered)
	for _, d := range delivered {
		fmt.Fprintf(out, "delivered %d after %d hops\n", d, res.Delivered[d])
	}
	if res.Failed() {
		fmt.Fprintf(out, "FAILED: %d of %d destinations unreached\n",
			res.DestCount-len(res.Delivered), res.DestCount)
	}
	return nil
}
