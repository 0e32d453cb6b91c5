package steiner

import (
	"fmt"
	"math/rand"
	"testing"

	"gmp/internal/geom"
)

func BenchmarkSteinerPoint(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	pts := make([][3]geom.Point, 256)
	for i := range pts {
		pts[i] = [3]geom.Point{
			geom.Pt(r.Float64()*1000, r.Float64()*1000),
			geom.Pt(r.Float64()*1000, r.Float64()*1000),
			geom.Pt(r.Float64()*1000, r.Float64()*1000),
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pts[i%len(pts)]
		geom.SteinerPoint(p[0], p[1], p[2])
	}
}

func BenchmarkReductionRatio(b *testing.B) {
	s := geom.Pt(0, 0)
	u := geom.Pt(800, 450)
	v := geom.Pt(820, 530)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ReductionRatio(s, u, v)
	}
}

func benchmarkBuild(b *testing.B, k int, opts Options) {
	r := rand.New(rand.NewSource(2))
	src := geom.Pt(500, 500)
	sets := make([][]Dest, 32)
	for i := range sets {
		sets[i] = randDests(r, k, 1000)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		new(Builder).Build(src, sets[i%len(sets)], opts)
	}
}

func BenchmarkRRSTRBuild(b *testing.B) {
	for _, k := range []int{5, 12, 25, 50} {
		b.Run(fmt.Sprintf("k=%d/basic", k), func(b *testing.B) {
			benchmarkBuild(b, k, Options{})
		})
		b.Run(fmt.Sprintf("k=%d/aware", k), func(b *testing.B) {
			benchmarkBuild(b, k, Options{RadioRange: 150, RadioAware: true})
		})
	}
}

func BenchmarkEuclideanMST(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	src := geom.Pt(500, 500)
	dests := randDests(r, 25, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		new(Builder).EuclideanMST(src, dests)
	}
}

func BenchmarkKMBGrid(b *testing.B) {
	g := gridGraph(30, 30)
	terms := []int{0, 29, 870, 899, 450, 435}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := KMB(g, terms); err != nil {
			b.Fatal(err)
		}
	}
}
