package main

import (
	"fmt"
	"runtime"
	"time"

	"gmp/internal/geom"
	"gmp/internal/network"
	"gmp/internal/planar"
	"gmp/internal/routing"
	"gmp/internal/sim"
	"gmp/internal/steiner"
	"gmp/internal/view"
	"gmp/internal/workload"
)

// The §5 Table-1 field and the paper's K sweep.
const (
	simNodes    = 1000
	simSide     = 1000.0
	simRange    = 150.0
	simMaxHops  = 100
	simNets     = 4   // seeded deployments per run
	simPerPoint = 100 // tasks per (deployment, K) in one pass
)

var simKs = []int{3, 5, 8, 12, 16, 20, 25}

// simPaperPrint is the pass aggregate for seed 1: transmissions, delivered
// destinations, failed tasks, and the digest of per-task outcomes.
var simPaperPrint = passTotals{Tx: 65828, Delivered: 35600, FailedTasks: 0, Digest: 0xbd327f75acb70297}

type simTask struct {
	net   int
	src   int
	dests []int
}

// simBench is one set-up of the sim-paper workload.
type simBench struct {
	engines  []*sim.Engine
	handlers []sim.Handler
	tasks    []simTask // one pass, K sweep cycling fastest
}

func setupSim(seed int64, st *setupTimes) (*simBench, error) {
	b := &simBench{}
	radio := sim.DefaultRadioParams()
	radio.RangeM = simRange
	perNet := make([][][]workload.Task, simNets)
	for n := 0; n < simNets; n++ {
		t0 := time.Now()
		nodes := network.DeployUniform(simNodes, simSide, simSide, seedStream(seed, int64(n)))
		nw, err := network.New(nodes, simSide, simSide, simRange)
		if err != nil {
			return nil, fmt.Errorf("deployment %d: %w", n, err)
		}
		t1 := time.Now()
		pg := planar.Planarize(nw, planar.Gabriel)
		t2 := time.Now()
		en := sim.NewEngine(nw, radio, simMaxHops)
		en.SetViews(view.NewOracle(nw, pg))
		h, err := routing.Make("GMP", routing.Ctx{})
		if err != nil {
			return nil, err
		}
		st.deploy += t1.Sub(t0)
		st.planarize += t2.Sub(t1)
		st.views += time.Since(t2)
		b.engines = append(b.engines, en)
		b.handlers = append(b.handlers, h)
		for ki, k := range simKs {
			ts, err := workload.GenerateBatch(seedStream(seed, int64(100+n*len(simKs)+ki)), simNodes, k, simPerPoint)
			if err != nil {
				return nil, err
			}
			perNet[n] = append(perNet[n], ts)
		}
	}
	for i := 0; i < simPerPoint; i++ {
		for n := 0; n < simNets; n++ {
			for ki := range simKs {
				t := perNet[n][ki][i]
				b.tasks = append(b.tasks, simTask{net: n, src: t.Source, dests: t.Dests})
			}
		}
	}
	return b, nil
}

// passTotals is the exact output of one pass over the task list.
type passTotals struct {
	Tx, Delivered, FailedTasks int64
	Digest                     uint64
}

// simLoop is what one timed loop over the task list observed.
type simLoop struct {
	lat         []float64       // per-task wall latency, ms
	ends        []time.Duration // per-task completion offset
	tasks       int64
	auditFailed int64
	hops        int64
	first       passTotals // totals of the first full pass
	complete    bool       // whether a full pass finished
	passes      int
	// firstDecisions counts the decisions of the first full pass when the
	// handlers are traced.
	firstDecisions int64
}

// run runs tasks from the start of the list, cycling, until d elapses,
// checking every task with the engine's audit and every completed pass
// against the first.
func (b *simBench) run(d time.Duration, handlers []sim.Handler, tr *tracer, res *result) *simLoop {
	out := &simLoop{lat: make([]float64, 0, 1<<15)}
	audit := sim.AuditConfig{MaxHops: simMaxHops}
	var cur passTotals
	fp := newFingerprint()
	start := time.Now()
	for i := 0; ; i++ {
		j := i % len(b.tasks)
		if j == 0 && i > 0 {
			cur.Digest = fp.sum()
			if !out.complete {
				out.first, out.complete = cur, true
				for _, h := range handlers {
					if th, ok := h.(*tracedHandler); ok {
						out.firstDecisions += th.decisions
					}
				}
			} else if cur != out.first {
				res.fail("sim-paper: pass %d totals %+v differ from pass 0 %+v", out.passes, cur, out.first)
			}
			out.passes++
			cur, fp = passTotals{}, newFingerprint()
		}
		if time.Since(start) >= d {
			break
		}
		t := b.tasks[j]
		id := tr.begin("sim.RunTask", -1, int64(i))
		if h, ok := handlers[t.net].(*tracedHandler); ok {
			h.parent, h.req = id, int64(i)
		}
		t0 := time.Now()
		m := b.engines[t.net].RunTask(handlers[t.net], t.src, t.dests)
		done := time.Now()
		out.lat = append(out.lat, ms(done.Sub(t0)))
		out.ends = append(out.ends, done.Sub(start))
		tr.end(id)
		if err := sim.AuditTask(&m, audit); err != nil {
			out.auditFailed++
			res.fail("sim-paper: task %d (src %d, K %d): %v", j, t.src, len(t.dests), err)
		}
		failed := int64(0)
		if m.Failed() {
			failed = 1
		}
		cur.Tx += int64(m.Transmissions)
		cur.Delivered += int64(len(m.Delivered))
		cur.FailedTasks += failed
		fp.add(int64(m.Transmissions), int64(len(m.Delivered)))
		out.tasks++
		out.hops += int64(m.Transmissions)
	}
	return out
}

// tracedHandler wraps GMP's sim.Handler with spans around Start and Decide,
// and after each decision replays the rrSTR build that decision made, so
// steiner time is measured on exactly the inputs the protocol saw.
type tracedHandler struct {
	h      sim.Handler
	tr     *tracer
	parent int32
	req    int64

	b         steiner.Builder
	dests     []steiner.Dest
	decisions int64
	perimeter int64
}

func (t *tracedHandler) Start(v view.NodeView, pkt *sim.Packet) []sim.Forward {
	return t.decide("routing.Start", v, pkt, t.h.Start)
}

func (t *tracedHandler) Decide(v view.NodeView, pkt *sim.Packet) []sim.Forward {
	return t.decide("routing.Decide", v, pkt, t.h.Decide)
}

func (t *tracedHandler) decide(name string, v view.NodeView, pkt *sim.Packet,
	fn func(view.NodeView, *sim.Packet) []sim.Forward) []sim.Forward {
	perimeter := pkt.Perimeter
	id := t.tr.begin(name, t.parent, t.req)
	fwds := fn(v, pkt)
	t.tr.end(id)
	t.decisions++
	for _, f := range fwds {
		perimeter = perimeter || (f.Pkt != nil && f.Pkt.Perimeter)
	}
	if perimeter {
		t.perimeter++
	}
	if !pkt.Perimeter {
		t.dests = replayBuild(t.tr, t.parent, t.req, &t.b, t.dests, v.Pos(), v.Range(), pkt)
	}
	return fwds
}

// replayBuild times one rrSTR construction over a decision's inputs: the
// deciding node's position and the packet's remaining destination
// locations, with GMP's radio-aware options.
func replayBuild(tr *tracer, parent int32, req int64, b *steiner.Builder, buf []steiner.Dest,
	pos geom.Point, radioRange float64, pkt *sim.Packet) []steiner.Dest {
	buf = buf[:0]
	for i, id := range pkt.Dests {
		buf = append(buf, steiner.Dest{Pos: pkt.Locs[i], Label: id})
	}
	id := tr.begin("steiner.Build", parent, req)
	b.Build(pos, buf, steiner.Options{RadioRange: radioRange, RadioAware: true})
	tr.end(id)
	return buf
}

func runSimPaper(cfg config, res *result) error {
	b, setups, setupS, err := setUp(func(st *setupTimes) (*simBench, error) {
		b, err := setupSim(cfg.Seed, st)
		if err != nil {
			return nil, err
		}
		// Warm-up: one task per deployment and K, outside the timed loop.
		for _, t := range b.tasks[:simNets*len(simKs)] {
			b.engines[t.net].RunTask(b.handlers[t.net], t.src, t.dests)
		}
		return b, nil
	}, nil)
	if err != nil {
		return err
	}

	if !cfg.Trace {
		p0 := snapProc()
		loop := b.run(cfg.phase(1), b.handlers, nil, res)
		p1 := snapProc()
		elapsed := p1.wall.Sub(p0.wall).Seconds()
		s := summarize(loop.lat)
		res.Attempted, res.Failed = loop.tasks, loop.auditFailed
		reportEndToEnd(res, setupS, blockRate(loop.ends, cfg.phase(1)), s)
		res.note("sim-paper: %d GMP tasks in %.2f s (%d full passes of %d), task latency %s ms",
			loop.tasks, elapsed, loop.passes, len(b.tasks), s)
		checkSimPrint(cfg, loop, res)
		return nil
	}

	// Traced run: an untraced half, then a traced half starting at the top
	// of the task list so its first pass gives exact decision counts.
	p0 := snapProc()
	plain := b.run(cfg.phase(0.5), b.handlers, nil, res)
	p1 := snapProc()
	runtime.GC()
	tr := newTracer(time.Now())
	handlers := make([]sim.Handler, len(b.handlers))
	traced := make([]*tracedHandler, len(b.handlers))
	for i, h := range b.handlers {
		traced[i] = &tracedHandler{h: h, tr: tr, parent: -1}
		handlers[i] = traced[i]
	}
	p2 := snapProc()
	loop := b.run(cfg.phase(0.5), handlers, tr, res)
	p3 := snapProc()
	res.Attempted, res.Failed = plain.tasks+loop.tasks, plain.auditFailed+loop.auditFailed
	checkSimPrint(cfg, plain, res)
	if !loop.complete {
		return fmt.Errorf("traced phase completed no full pass of %d tasks", len(b.tasks))
	}
	if loop.first != plain.first {
		res.fail("sim-paper: traced pass %+v differs from untraced pass %+v", loop.first, plain.first)
	}

	agg := aggregate(tr)
	var decisions, perimeter int64
	for _, h := range traced {
		decisions += h.decisions
		perimeter += h.perimeter
	}
	decideT := agg["routing.Start"].total() + agg["routing.Decide"].total()
	buildT := agg["steiner.Build"].total()
	res.perLayer("fail_frac", "frac", float64(res.Failed)/float64(res.Attempted))
	res.perLayer("routing.decide_us", "us", float64(decideT)/float64(time.Microsecond)/float64(decisions))
	res.perLayer("routing.decisions", "count", float64(loop.firstDecisions))
	res.perLayer("routing.perimeter_frac", "frac", float64(perimeter)/float64(decisions))
	res.perLayer("steiner.build_us", "us", meanUs(agg, "steiner.Build"))
	res.perLayer("steiner.build_frac", "frac", buildT.Seconds()/decideT.Seconds())
	res.perLayer("sim.engine_us_per_hop", "us", float64(agg["sim.RunTask"].Self)/float64(time.Microsecond)/float64(loop.hops))
	res.perLayer("sim.hops", "count", float64(plain.first.Tx))
	res.perLayer("sim.delivered", "count", float64(plain.first.Delivered))
	reportSetup(res, setups)
	reportProc(res, deltaProc(p0, p1, plain.tasks), deltaProc(p2, p3, loop.tasks))
	zeroLayers(res)
	res.note("routing.decisions, sim.hops and sim.delivered are exact per pass of %d tasks", len(b.tasks))
	return publishSpans(cfg, res, agg, tr)
}

// checkSimPrint compares the first pass to the recorded fingerprint on
// seed 1 and prints it on every seed.
func checkSimPrint(cfg config, loop *simLoop, res *result) {
	if !loop.complete {
		res.fail("sim-paper: no full pass completed; fingerprint unchecked")
		return
	}
	res.note("sim-paper fingerprint: tx %d, delivered %d, failed tasks %d, digest %#x",
		loop.first.Tx, loop.first.Delivered, loop.first.FailedTasks, loop.first.Digest)
	if cfg.Seed == 1 && loop.first != simPaperPrint {
		res.fail("sim-paper: fingerprint %+v, recorded %+v", loop.first, simPaperPrint)
	}
}
