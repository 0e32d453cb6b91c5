// Command gmpviz renders a multicast task as an SVG image: the deployment,
// the planarized graph, the executed forwarding trace (perimeter hops
// dashed red), and the task's source/destinations — a live version of the
// paper's route figures.
//
// Usage:
//
//	gmpviz -protocol GMP -nodes 600 -k 5 -seed 42 -o task.svg
//	gmpviz -tree -source 0,0 -dests "900,480;900,520" -o tree.svg
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"gmp/internal/geom"
	"gmp/internal/network"
	"gmp/internal/planar"
	"gmp/internal/routing"
	"gmp/internal/sim"
	"gmp/internal/steiner"
	"gmp/internal/trace"
	"gmp/internal/view"
	"gmp/internal/viz"
	"gmp/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gmpviz:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("gmpviz", flag.ContinueOnError)
	var (
		protoName = fs.String("protocol", "GMP", "registered protocol to trace: "+
			strings.Join(routing.Names(), "|"))
		nodes    = fs.Int("nodes", 600, "deployed node count")
		k        = fs.Int("k", 5, "number of destinations")
		seed     = fs.Int64("seed", 1, "deployment and task seed")
		lambda   = fs.Float64("lambda", 0.3, "PBM trade-off parameter")
		out      = fs.String("o", "", "output file (default stdout)")
		treeMode = fs.Bool("tree", false, "render an rrSTR tree for explicit coordinates instead of a simulation")
		srcFlag  = fs.String("source", "0,0", "tree mode: source coordinate x,y")
		destFlag = fs.String("dests", "", "tree mode: destinations x,y;x,y;…")
		rr       = fs.Float64("rr", 150, "tree mode: radio range")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var svg string
	if *treeMode {
		s, err := renderTree(*srcFlag, *destFlag, *rr)
		if err != nil {
			return err
		}
		svg = s
	} else {
		s, err := renderSim(*protoName, *nodes, *k, *seed, *lambda)
		if err != nil {
			return err
		}
		svg = s
	}

	if *out == "" {
		fmt.Fprint(stdout, svg)
		return nil
	}
	return os.WriteFile(*out, []byte(svg), 0o644)
}

func renderSim(protoName string, nodes, k int, seed int64, lambda float64) (string, error) {
	r := rand.New(rand.NewSource(seed))
	deployed := network.DeployUniform(nodes, 1000, 1000, r)
	nw, err := network.New(deployed, 1000, 1000, 150)
	if err != nil {
		return "", err
	}
	pg := planar.Planarize(nw, planar.Gabriel)
	en := sim.NewEngine(nw, sim.DefaultRadioParams(), 100)
	en.SetViews(view.NewOracle(nw, pg))

	proto, err := routing.MakeFold(protoName, routing.Ctx{Network: nw, Lambda: lambda, LambdaSet: true})
	if err != nil {
		return "", err
	}

	task, err := workload.Generate(r, nodes, k)
	if err != nil {
		return "", err
	}
	var c trace.Collector
	en.SetTracer(c.Record)
	en.RunTask(proto, task.Source, task.Dests)
	en.SetTracer(nil)
	return viz.RenderTask(nw, pg, c.Events(), task.Source, task.Dests), nil
}

func renderTree(srcFlag, destFlag string, rr float64) (string, error) {
	if destFlag == "" {
		return "", fmt.Errorf("tree mode needs -dests")
	}
	src, err := parsePoint(srcFlag)
	if err != nil {
		return "", fmt.Errorf("-source: %w", err)
	}
	var dests []steiner.Dest
	maxX, maxY := src.X, src.Y
	for i, part := range strings.Split(destFlag, ";") {
		p, err := parsePoint(part)
		if err != nil {
			return "", fmt.Errorf("-dests[%d]: %w", i, err)
		}
		dests = append(dests, steiner.Dest{Pos: p, Label: i})
		if p.X > maxX {
			maxX = p.X
		}
		if p.Y > maxY {
			maxY = p.Y
		}
	}
	tree := new(steiner.Builder).Build(src, dests, steiner.Options{RadioRange: rr, RadioAware: true})
	return viz.RenderTree(maxX+50, maxY+50, tree), nil
}

func parsePoint(s string) (geom.Point, error) {
	parts := strings.Split(strings.TrimSpace(s), ",")
	if len(parts) != 2 {
		return geom.Point{}, fmt.Errorf("want x,y; got %q", s)
	}
	x, err := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
	if err != nil {
		return geom.Point{}, err
	}
	y, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
	if err != nil {
		return geom.Point{}, err
	}
	return geom.Pt(x, y), nil
}
