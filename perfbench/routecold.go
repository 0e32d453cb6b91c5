package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"gmp/internal/geom"
	"gmp/internal/serve"
	"gmp/internal/wire"
)

const (
	routeK = 120
	// routePrefix routes per connection make the exact fingerprint.
	routePrefix = 100
	// routeWarmup routes per connection run in set-up, from their own stream.
	routeWarmup = 3
	// routeCapture routes per connection have their HOP streams captured
	// for replay in the traced phase.
	routeCapture = 20
)

// routeColdPrint is the fingerprint of the first routePrefix routes of each
// connection on seed 1.
const routeColdPrint uint64 = 0x1b2867adbd8cce17

// routeRec is what one ROUTE request observed.
type routeRec struct {
	frame     []byte
	ok        bool
	latMs     float64
	end       time.Duration // completion offset from the phase start
	firstMs   float64       // send to first HOP
	gapUs     float64       // mean gap between HOPs
	tailMs    float64       // last HOP to ROUTE_DONE
	hops      uint32
	decisions uint32
	outcomes  []wire.DestOutcome
	captured  [][]byte // HOP message bodies, when captured
}

// routeConn is one client connection's closed loop.
type routeConn struct {
	c    *serve.Client
	rng  *rand.Rand
	recs []routeRec
	err  error // transport error that ended the loop
}

// nextGroup draws a fresh uniformly random K-destination group.
func nextGroup(rng *rand.Rand) ([]byte, error) {
	src := randPoint(rng)
	dests := make([]geom.Point, routeK)
	for i := range dests {
		dests[i] = randPoint(rng)
	}
	return startFrame(src, dests)
}

// loop issues streamed ROUTEs back to back until d past start.
func (rc *routeConn) loop(start time.Time, d time.Duration, tr *tracer, capture int) {
	for time.Since(start) < d {
		frame, err := nextGroup(rc.rng)
		if err != nil {
			rc.err = err
			return
		}
		rec := routeRec{frame: frame}
		keep := len(rc.recs) < capture
		var first, last time.Time
		var n uint32
		id := tr.begin("client.Route", -1, int64(len(rc.recs)))
		t0 := time.Now()
		rep, err := rc.c.Route(wire.RouteBody{Frame: frame}, func(hb wire.HopBody) {
			now := time.Now()
			if first.IsZero() {
				first = now
			}
			last = now
			if hb.To >= 0 {
				n++
			}
			if keep {
				rec.captured = append(rec.captured, wire.EncodeHop(hb))
			}
		})
		done := time.Now()
		tr.end(id)
		rec.latMs = ms(done.Sub(t0))
		rec.end = done.Sub(start)
		if err != nil {
			rc.err = err
			rc.recs = append(rc.recs, rec)
			return // the session is gone
		}
		if rep.Kind == wire.MsgRouteDone {
			rec.ok = true
			rec.hops, rec.decisions, rec.outcomes = rep.Done.Hops, rep.Done.Decisions, rep.Done.Outcomes
			if n != rep.Done.Hops {
				rc.err = fmt.Errorf("route %d: %d HOP transmissions streamed, ROUTE_DONE says %d",
					len(rc.recs), n, rep.Done.Hops)
			}
			if !first.IsZero() {
				rec.firstMs = ms(first.Sub(t0))
				rec.tailMs = ms(done.Sub(last))
				if n > 1 {
					rec.gapUs = float64(last.Sub(first).Microseconds()) / float64(n-1)
				}
			}
		}
		rc.recs = append(rc.recs, rec)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// routeBench is one set-up of the route-cold workload.
type routeBench struct {
	d     *daemon
	conns []*routeConn
}

func setupRoute(seed int64, st *setupTimes) (*routeBench, error) {
	d, err := startDaemon(st)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	b := &routeBench{d: d}
	for i := 0; i < serveConns; i++ {
		c, err := serve.Dial(d.addr, protocol, 10*time.Second)
		if err != nil {
			return nil, err
		}
		warm := &routeConn{c: c, rng: seedStream(seed, int64(2000+i))}
		for w := 0; w < routeWarmup; w++ {
			frame, err := nextGroup(warm.rng)
			if err != nil {
				return nil, err
			}
			if rep, err := c.Route(wire.RouteBody{Frame: frame}, nil); err != nil || rep.Kind != wire.MsgRouteDone {
				return nil, fmt.Errorf("warm-up route: %s, %v", wire.MsgName(rep.Kind), err)
			}
		}
		b.conns = append(b.conns, &routeConn{c: c, rng: seedStream(seed, int64(1000+i))})
	}
	st.server += time.Since(t0)
	return b, nil
}

func (b *routeBench) close(res *result) serve.Stats {
	for _, rc := range b.conns {
		rc.c.Close()
	}
	return b.d.stop(res)
}

// run drives every connection for d; tracers, when given, are per
// connection.
func (b *routeBench) run(d time.Duration, trs []*tracer, capture int) {
	var wg sync.WaitGroup
	start := time.Now()
	for i, rc := range b.conns {
		var tr *tracer
		if trs != nil {
			tr = trs[i]
		}
		rc.recs = rc.recs[:0]
		wg.Add(1)
		go func() {
			defer wg.Done()
			rc.loop(start, d, tr, capture)
		}()
	}
	wg.Wait()
}

// routeTotals checks every route's summary and returns the routes attempted
// and failed, with latency and stream samples.
type routeTotals struct {
	attempted, failed      int64
	lat, first, gap, tail  []float64
	ends                   []time.Duration
	prefixHops, prefixDecs int64
	print                  uint64
	prefixComplete         bool
}

func (b *routeBench) check(res *result, seen map[uint64]bool, phase string) routeTotals {
	var t routeTotals
	fp := newFingerprint()
	t.prefixComplete = true
	nw := b.d.dep.NW
	var f wire.Frame
	var done []routeRec
	for ci, rc := range b.conns {
		if rc.err != nil {
			res.fail("route-cold: connection %d: %v", ci, rc.err)
		}
		if len(rc.recs) < routePrefix {
			t.prefixComplete = false
		}
		for i, r := range rc.recs {
			t.attempted++
			h := fnv.New64a()
			h.Write(r.frame)
			if seen[h.Sum64()] {
				res.fail("route-cold: connection %d route %d repeats an earlier group", ci, i)
			}
			seen[h.Sum64()] = true
			if !r.ok {
				t.failed++
				continue
			}
			done = append(done, r)
			t.first = append(t.first, r.firstMs)
			t.gap = append(t.gap, r.gapUs)
			t.tail = append(t.tail, r.tailMs)
			// Every resolved destination is accounted for exactly once.
			if err := wire.DecodeInto(&f, r.frame); err != nil {
				res.fail("route-cold: route frame: %v", err)
				continue
			}
			want := map[int]bool{}
			for _, loc := range f.Dests {
				want[nw.ClosestNode(loc)] = true
			}
			got := map[int]bool{}
			delivered := 0
			for _, o := range r.outcomes {
				if !want[int(o.Node)] || got[int(o.Node)] {
					res.fail("route-cold: connection %d route %d: outcome for node %d unexpected or repeated", ci, i, o.Node)
				}
				got[int(o.Node)] = true
				if o.Status == wire.RouteDelivered {
					delivered++
				}
			}
			if len(got) != len(want) {
				res.fail("route-cold: connection %d route %d: %d outcomes for %d destinations", ci, i, len(got), len(want))
			}
			if i < routePrefix {
				t.prefixHops += int64(r.hops)
				t.prefixDecs += int64(r.decisions)
				fp.add(int64(ci), int64(i), int64(r.hops), int64(r.decisions), int64(delivered))
			}
		}
	}
	t.print = fp.sum()
	// Latencies in completion order, so the tail windows are time windows.
	sort.Slice(done, func(i, j int) bool { return done[i].end < done[j].end })
	for _, r := range done {
		t.lat = append(t.lat, r.latMs)
		t.ends = append(t.ends, r.end)
	}
	if t.prefixComplete {
		res.note("route-cold %s fingerprint: %d hops, %d decisions over the first %d routes of %d connections, digest %#x",
			phase, t.prefixHops, t.prefixDecs, routePrefix, len(b.conns), t.print)
	} else {
		res.fail("route-cold %s: fewer than %d routes on a connection; fingerprint unchecked", phase, routePrefix)
	}
	return t
}

func runRouteCold(cfg config, res *result) error {
	b, setups, setupS, err := setUp(func(st *setupTimes) (*routeBench, error) {
		return setupRoute(cfg.Seed, st)
	}, func(b *routeBench) { b.close(res) })
	if err != nil {
		return err
	}
	seen := map[uint64]bool{}
	if !cfg.Trace {
		s0 := b.d.srv.Stats()
		p0 := snapProc()
		b.run(cfg.phase(1), nil, 0)
		p1 := snapProc()
		s1 := b.d.srv.Stats()
		final := b.close(res)
		t := b.check(res, seen, "timed")
		elapsed := p1.wall.Sub(p0.wall).Seconds()
		lat := summarize(t.lat)
		hit := hitFrac(s0, s1)
		res.Attempted, res.Failed = t.attempted, t.failed
		reportEndToEnd(res, setupS, blockRate(t.ends, cfg.phase(1)), lat)
		res.note("route-cold: %d K=%d routes in %.2f s = %.1f routes/s, route latency %s ms, serve.cache_hit_frac %.3f",
			t.attempted, routeK, elapsed, float64(t.attempted-t.failed)/elapsed, lat, hit)
		checkRoutePrint(cfg, t, res)
		noteDaemon(res, final)
		return nil
	}

	// Traced run: an untraced half, then a traced half whose first routes'
	// HOP streams are captured and replayed layer by layer afterwards.
	s0 := b.d.srv.Stats()
	p0 := snapProc()
	b.run(cfg.phase(0.5), nil, 0)
	p1 := snapProc()
	plain := b.check(res, seen, "untraced")
	s1 := b.d.srv.Stats()
	runtime.GC()
	epoch := time.Now()
	trs := []*tracer{newTracer(epoch), newTracer(epoch)}
	p2 := snapProc()
	b.run(cfg.phase(0.5), trs, routeCapture)
	p3 := snapProc()
	traced := b.check(res, seen, "traced")
	final := b.close(res)
	checkRoutePrint(cfg, plain, res)
	res.Attempted = plain.attempted + traced.attempted
	res.Failed = plain.failed + traced.failed

	rp, err := newReplayer(b.d.dep.NW, b.d.views, newTracer(epoch))
	if err != nil {
		return err
	}
	for ci, rc := range b.conns {
		for i, r := range rc.recs[:min(routeCapture, len(rc.recs))] {
			req := int64(ci*1_000_000 + i)
			if err := rp.request(r.frame, req); err != nil {
				return err
			}
			for _, body := range r.captured {
				if err := rp.hop(body, req); err != nil {
					return err
				}
			}
		}
	}
	trs = append(trs, rp.tr)
	agg := aggregate(trs...)
	rp.report(res, agg)
	res.perLayer("fail_frac", "frac", float64(res.Failed)/float64(res.Attempted))
	res.perLayer("routing.decisions", "count", float64(plain.prefixDecs))
	res.perLayer("serve.decisions_per_route", "count", float64(plain.prefixDecs)/float64(routePrefix*len(b.conns)))
	res.perLayer("serve.hops_per_route", "count", float64(plain.prefixHops)/float64(routePrefix*len(b.conns)))
	res.perLayer("serve.cache_hit_frac", "frac", hitFrac(s0, s1))
	res.perLayer("serve.cache_evictions", "count", float64(s1.CacheEvictions-s0.CacheEvictions))
	reportShed(res, final)
	res.perLayer("client.first_hop_ms", "ms", median(plain.first))
	res.perLayer("client.hop_gap_us", "us", median(plain.gap))
	res.perLayer("client.done_tail_ms", "ms", median(plain.tail))
	reportSetup(res, setups)
	reportProc(res, deltaProc(p0, p1, plain.attempted), deltaProc(p2, p3, traced.attempted))
	zeroLayers(res)
	res.note("serve and client metrics come from the untraced half (%d routes, serve.cache_hit_frac %.3f); "+
		"routing, steiner, wire and network from replaying %d captured routes per connection",
		plain.attempted, hitFrac(s0, s1), routeCapture)
	return publishSpans(cfg, res, agg, trs...)
}

// checkRoutePrint compares the route prefix to the recorded fingerprint
// on seed 1.
func checkRoutePrint(cfg config, t routeTotals, res *result) {
	if cfg.Seed == 1 && t.prefixComplete && t.print != routeColdPrint {
		res.fail("route-cold: fingerprint %#x, recorded %#x", t.print, routeColdPrint)
	}
}

// cacheUse accumulates the memo cache's hits and misses over phases.
type cacheUse struct{ hits, misses int64 }

// add counts the hits and misses between two counter snapshots.
func (c *cacheUse) add(a, b serve.Stats) {
	c.hits += b.CacheHits - a.CacheHits
	c.misses += b.CacheMisses - a.CacheMisses
}

// frac is the hit share (0 when the cache saw no lookups).
func (c cacheUse) frac() float64 {
	if c.hits+c.misses == 0 {
		return 0
	}
	return float64(c.hits) / float64(c.hits+c.misses)
}

// hitFrac is the memo cache's hit share between two counter snapshots.
func hitFrac(a, b serve.Stats) float64 {
	var c cacheUse
	c.add(a, b)
	return c.frac()
}

// noteDaemon notes the daemon's final counters.
func noteDaemon(res *result, st serve.Stats) {
	res.note("daemon: admitted %d, shed queue %d, shed deadline %d, errors %d, evicted %d, undelivered %d",
		st.Admitted, st.ShedQueue, st.ShedDeadline, st.AnsweredErrors, st.Evicted, st.Undelivered)
}

// reportShed notes the daemon's final counters and publishes its refusals.
func reportShed(res *result, st serve.Stats) {
	noteDaemon(res, st)
	res.perLayer("serve.shed_queue", "count", float64(st.ShedQueue))
	res.perLayer("serve.shed_deadline", "count", float64(st.ShedDeadline))
	res.perLayer("serve.evicted", "count", float64(st.Evicted))
}
