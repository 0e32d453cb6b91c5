package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"time"

	"gmp/internal/geom"
	"gmp/internal/network"
	"gmp/internal/planar"
	"gmp/internal/serve"
	"gmp/internal/view"
	"gmp/internal/wire"
)

// setupRepeats is how many times a run sets up from scratch; setup_s is the
// median, and the last set-up is the one measured.
const setupRepeats = 3

// setUp runs setup setupRepeats times, tearing down every set-up but the
// last, and returns the last one with each set-up's stage times and the
// median total. It ends with a GC, so set-up garbage is not billed to the
// timed phase.
func setUp[B any](setup func(*setupTimes) (B, error), teardown func(B)) (B, []setupTimes, float64, error) {
	var b B
	var stages []setupTimes
	var totals []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 && teardown != nil {
			teardown(b)
		}
		var st setupTimes
		t0 := time.Now()
		nb, err := setup(&st)
		if err != nil {
			return b, nil, 0, err
		}
		totals = append(totals, time.Since(t0).Seconds())
		stages = append(stages, st)
		b = nb
	}
	runtime.GC()
	return b, stages, median(totals), nil
}

// setupTimes is one set-up's time per stage.
type setupTimes struct{ deploy, planarize, views, server time.Duration }

// seedStream derives an independent generator for (seed, stream).
func seedStream(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + stream*7919 + 17))
}

// layerMetrics names every per-layer metric with its unit. A workload that
// does not exercise a layer reports it as 0.
var layerMetrics = [][2]string{
	{"fail_frac", "frac"},
	{"steiner.build_us", "us"},
	{"steiner.build_frac", "frac"},
	{"routing.decide_us", "us"},
	{"routing.decisions", "count"},
	{"routing.perimeter_frac", "frac"},
	{"sim.engine_us_per_hop", "us"},
	{"sim.hops", "count"},
	{"sim.delivered", "count"},
	{"wire.decode_us", "us"},
	{"wire.encode_us", "us"},
	{"network.resolve_us", "us"},
	{"serve.cache_hit_frac", "frac"},
	{"serve.cache_evictions", "count"},
	{"serve.decisions_per_route", "count"},
	{"serve.hops_per_route", "count"},
	{"serve.shed_queue", "count"},
	{"serve.shed_deadline", "count"},
	{"serve.evicted", "count"},
	{"client.first_hop_ms", "ms"},
	{"client.hop_gap_us", "us"},
	{"client.done_tail_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"setup.deploy_s", "s"},
	{"setup.planarize_s", "s"},
	{"setup.views_s", "s"},
	{"setup.server_s", "s"},
	{"proc.cpu_s_per_op", "s"},
	{"proc.gc_cpu_frac", "frac"},
	{"proc.alloc_bytes_per_op", "B"},
	{"trace.overhead_frac", "frac"},
}

// reportEndToEnd publishes the end-to-end metrics every workload reports:
// set-up time, operations per second, the latency median and tail, and the
// process's peak resident memory.
func reportEndToEnd(res *result, setupS, opsPerS float64, lat summary) {
	res.endToEnd("setup_s", "s", setupS)
	res.endToEnd("ops_per_s", "1/s", opsPerS)
	res.endToEnd("p50_ms", "ms", lat.P50)
	res.endToEnd("p99_ms", "ms", lat.Tail)
	res.endToEnd("peak_rss_mb", "MB", peakRSSMB())
}

// zeroLayers fills in the per-layer metrics a workload did not report.
func zeroLayers(res *result) {
	for _, m := range layerMetrics {
		if _, ok := res.layer[m[0]]; !ok {
			res.perLayer(m[0], m[1], 0)
		}
	}
}

// reportSetup publishes the median of each set-up stage.
func reportSetup(res *result, st []setupTimes) {
	med := func(get func(setupTimes) time.Duration) float64 {
		xs := make([]float64, len(st))
		for i, s := range st {
			xs[i] = get(s).Seconds()
		}
		return median(xs)
	}
	res.perLayer("setup.deploy_s", "s", med(func(s setupTimes) time.Duration { return s.deploy }))
	res.perLayer("setup.planarize_s", "s", med(func(s setupTimes) time.Duration { return s.planarize }))
	res.perLayer("setup.views_s", "s", med(func(s setupTimes) time.Duration { return s.views }))
	res.perLayer("setup.server_s", "s", med(func(s setupTimes) time.Duration { return s.server }))
}

// serveConns and serveWorkers size the service workloads for a 2-CPU host.
const (
	serveConns   = 2
	serveWorkers = 2
	protocol     = "GMP"
)

// daemon is one in-process gmpd over loopback.
type daemon struct {
	dep *serve.Deployment
	// views is the replay's view provider over dep; the daemon's workers
	// build their own.
	views  view.Provider
	srv    *serve.Server
	addr   string
	served chan error
}

// startDaemon deploys the default 600-node field and serves it with the
// default configuration except for the worker count.
func startDaemon(st *setupTimes) (*daemon, error) {
	dc := serve.DefaultDeploy()
	t0 := time.Now()
	nodes := network.DeployUniform(dc.Nodes, dc.Width, dc.Height, rand.New(rand.NewSource(dc.Seed)))
	nw, err := network.New(nodes, dc.Width, dc.Height, dc.RadioRange)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	pg := planar.Planarize(nw, dc.Planarizer)
	t2 := time.Now()
	d := &daemon{dep: &serve.Deployment{NW: nw, PG: pg}, views: view.NewOracle(nw, pg), served: make(chan error, 1)}
	t3 := time.Now()
	d.srv = serve.New(d.dep, serve.Config{Workers: serveWorkers})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d.addr = ln.Addr().String()
	go func() { d.served <- d.srv.Serve(ln) }()
	st.deploy += t1.Sub(t0)
	st.planarize += t2.Sub(t1)
	st.views += t3.Sub(t2)
	st.server += time.Since(t3)
	return d, nil
}

// stop drains the daemon, waits for its accept loop, and returns the final
// counters after checking conservation.
func (d *daemon) stop(res *result) serve.Stats {
	rep := d.srv.Drain()
	<-d.served
	if err := rep.Stats.CheckConservation(); err != nil {
		res.fail("%v", err)
	}
	return rep.Stats
}

// randPoint draws a location uniformly over the default deployment.
func randPoint(rng *rand.Rand) geom.Point {
	dc := serve.DefaultDeploy()
	return geom.Pt(rng.Float64()*dc.Width, rng.Float64()*dc.Height)
}

// startFrame encodes an OpStart frame from src to dests: the source decides.
func startFrame(src geom.Point, dests []geom.Point) ([]byte, error) {
	return wire.Encode(&wire.Frame{Source: src, NextHop: src, Dests: dests}, 0)
}

// rawConn is a session connection driven directly through the wire codec,
// so one goroutine can write requests on schedule while another reads
// answers.
type rawConn struct {
	conn net.Conn
	br   *bufio.Reader
}

// dialRaw connects and completes the HELLO handshake.
func dialRaw(addr string) (*rawConn, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	c := &rawConn{conn: conn, br: bufio.NewReaderSize(conn, 64<<10)}
	hello := wire.Msg{Type: wire.MsgHello, ID: 1, Body: wire.EncodeHello(wire.HelloBody{
		Version: wire.SessionVersion, Protocol: protocol})}
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write(wire.AppendMsg(nil, hello)); err != nil {
		conn.Close()
		return nil, fmt.Errorf("hello: %w", err)
	}
	m, err := wire.ReadMsg(c.br)
	if err != nil || m.Type != wire.MsgHello {
		conn.Close()
		return nil, fmt.Errorf("hello: answer %s, %v", wire.MsgName(m.Type), err)
	}
	conn.SetDeadline(time.Time{})
	return c, nil
}
