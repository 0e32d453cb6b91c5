// Command gmptree builds and prints an rrSTR virtual Euclidean Steiner tree
// for a source and a set of destination coordinates, comparing it against
// the MST that the LGS baseline would use.
//
// Usage:
//
//	gmptree -source 0,0 -dests "900,480;900,520;400,700" [-rr 150] [-basic]
//
// Coordinates are "x,y" pairs; destinations are separated by semicolons.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"gmp/internal/geom"
	"gmp/internal/steiner"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gmptree:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("gmptree", flag.ContinueOnError)
	var (
		srcFlag  = fs.String("source", "0,0", "source coordinate x,y")
		destFlag = fs.String("dests", "", "destination coordinates x,y;x,y;…")
		rr       = fs.Float64("rr", 150, "radio range for the radio-aware heuristic")
		basic    = fs.Bool("basic", false, "disable radio-range awareness (GMPnr's builder)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *destFlag == "" {
		return fmt.Errorf("need -dests")
	}
	src, err := parsePoint(*srcFlag)
	if err != nil {
		return fmt.Errorf("-source: %w", err)
	}
	var dests []steiner.Dest
	for i, part := range strings.Split(*destFlag, ";") {
		p, err := parsePoint(part)
		if err != nil {
			return fmt.Errorf("-dests[%d]: %w", i, err)
		}
		dests = append(dests, steiner.Dest{Pos: p, Label: i})
	}

	opts := steiner.Options{RadioRange: *rr, RadioAware: !*basic}
	tree := new(steiner.Builder).Build(src, dests, opts)
	if err := tree.Validate(); err != nil {
		return err
	}
	mst := new(steiner.Builder).EuclideanMST(src, dests)

	fmt.Fprintf(out, "rrSTR tree (radio-aware=%v, rr=%g):\n%s", !*basic, *rr, tree)
	fmt.Fprintf(out, "total length: %.2f m over %d edges (%d virtual vertices)\n",
		tree.TotalLength(), tree.NumEdges(), countVirtuals(tree))
	fmt.Fprintf(out, "\nLGS-style MST over the same terminals:\n%s", mst)
	fmt.Fprintf(out, "total length: %.2f m\n", mst.TotalLength())
	if mstLen := mst.TotalLength(); mstLen > 0 {
		saving := (1 - tree.TotalLength()/mstLen) * 100
		fmt.Fprintf(out, "\nrrSTR saves %.1f%% tree length vs the MST\n", saving)
	}
	return nil
}

func countVirtuals(t *steiner.Tree) int {
	n := 0
	for _, v := range t.Vertices() {
		if v.Kind == steiner.Virtual {
			n++
		}
	}
	return n
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
