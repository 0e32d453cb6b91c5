package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"gmp/internal/geom"
	"gmp/internal/serve"
	"gmp/internal/wire"
)

// The decide-hot traffic: single OpStart DECIDEs with K uniform in 5..25,
// most drawn Zipf-distributed from a pool of popular groups that fits in
// the daemon's memo cache, the rest fresh.
const (
	hotPool      = 1024
	hotKMin      = 5
	hotKMax      = 25
	hotPoolShare = 0.8
	hotZipfS     = 1.1
	// hotFixedRate is the fixed-rate phase's offered load, requests/s.
	hotFixedRate = 4000
	// hotLimitMs is the ladder's tail-latency limit, measured from due time.
	hotLimitMs = 5.0
	// hotLateLimitMs bounds the generator's tail lateness; a fixed-rate
	// phase later than this is not a measurement.
	hotLateLimitMs = 2.0
	// hotCapture requests per connection are captured for replay in the
	// traced phase.
	hotCapture = 2000
)

// hotLadder is the fixed ladder of offered rates, requests/s.
var hotLadder = []float64{8000, 12000, 16000, 20000, 24000, 28000, 32000}

// hotReq is one scheduled request: its DECIDE body and its pool index
// (-1 for a fresh group).
type hotReq struct {
	body []byte
	pool int
}

// hotGroup draws a source and k destination locations.
func hotGroup(rng *rand.Rand, k int) ([]byte, error) {
	src := randPoint(rng)
	dests := make([]geom.Point, k)
	for i := range dests {
		dests[i] = randPoint(rng)
	}
	f, err := startFrame(src, dests)
	if err != nil {
		return nil, err
	}
	return wire.EncodeDecide(wire.DecideBody{Op: wire.OpStart, Frame: f}), nil
}

// hotTraffic generates the pool and request schedules from the seed.
type hotTraffic struct {
	pool [][]byte
	rng  *rand.Rand
	zipf *rand.Zipf
}

func newHotTraffic(seed int64) (*hotTraffic, error) {
	t := &hotTraffic{rng: seedStream(seed, 3001)}
	t.zipf = rand.NewZipf(t.rng, hotZipfS, 1, hotPool-1)
	prng := seedStream(seed, 3000)
	for i := 0; i < hotPool; i++ {
		// K cycles with popularity rank, so the hot groups' sizes are the
		// same on every seed and only their locations vary.
		b, err := hotGroup(prng, hotKMin+i%(hotKMax-hotKMin+1))
		if err != nil {
			return nil, err
		}
		t.pool = append(t.pool, b)
	}
	return t, nil
}

// schedule draws n requests.
func (t *hotTraffic) schedule(n int) ([]hotReq, error) {
	reqs := make([]hotReq, n)
	for i := range reqs {
		if t.rng.Float64() < hotPoolShare {
			p := int(t.zipf.Uint64())
			reqs[i] = hotReq{body: t.pool[p], pool: p}
			continue
		}
		b, err := hotGroup(t.rng, hotKMin+t.rng.Intn(hotKMax-hotKMin+1))
		if err != nil {
			return nil, err
		}
		reqs[i] = hotReq{body: b, pool: -1}
	}
	return reqs, nil
}

// failLatMs is the latency billed to a request that got no FORWARDS answer:
// the receiver's wait past the last due time, so a failure misses any limit.
const failLatMs = 5000

// firstID is the first request ID after the HELLO.
const firstID = 2

// openLoop is one open-loop phase: reqs offered at rate over conns, request
// i falling due at i/rate and sent on connection
// i mod len(conns). Each connection has a sender that writes every overdue
// request at once and sleeps only when none is due, and a receiver that
// times each answer from its request's due time.
type openLoop struct {
	reqs    []hotReq
	rate    float64
	answers [][]byte // first answer per pool index

	start    time.Time
	latMs    []float64 // from due time; failLatMs for a failed request
	lateMs   []float64 // send time minus due time
	kinds    []byte
	mismatch int
	// capture keeps request frames and answer bodies for replay, for the
	// first hotCapture requests per connection.
	capture  bool
	captured [][]byte
	pacers   []*pacer // one per connection
}

func (o *openLoop) due(i int) time.Duration {
	return time.Duration(float64(i) / o.rate * float64(time.Second))
}

func (o *openLoop) run(conns []*rawConn, trs []*tracer) {
	n := len(o.reqs)
	o.latMs = make([]float64, n)
	o.lateMs = make([]float64, n)
	o.kinds = make([]byte, n)
	if o.capture {
		o.captured = make([][]byte, n)
	}
	for i := range o.latMs {
		o.latMs[i] = failLatMs
	}
	o.start = time.Now().Add(5 * time.Millisecond)
	end := o.start.Add(o.due(n-1) + failLatMs*time.Millisecond)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for ci, c := range conns {
		var str, rtr *tracer
		if trs != nil {
			str, rtr = trs[2*ci], trs[2*ci+1]
		}
		wg.Add(2)
		go func() {
			defer wg.Done()
			o.send(c, ci, len(conns), str)
		}()
		go func() {
			defer wg.Done()
			m := o.recv(c, ci, len(conns), end, rtr)
			mu.Lock()
			o.mismatch += m
			mu.Unlock()
		}()
	}
	wg.Wait()
}

// send writes connection ci's share of the schedule.
func (o *openLoop) send(c *rawConn, ci, nconns int, tr *tracer) {
	var buf []byte
	next := ci
	for next < len(o.reqs) {
		if err := o.pacers[ci].sleep(time.Until(o.start.Add(o.due(next)))); err != nil {
			c.conn.Close()
			return
		}
		now := time.Since(o.start)
		buf = buf[:0]
		first := next
		for ; next < len(o.reqs) && o.due(next) <= now; next += nconns {
			o.lateMs[next] = ms(now - o.due(next))
			buf = wire.AppendMsg(buf, wire.Msg{Type: wire.MsgDecide, ID: uint64(next + firstID), Body: o.reqs[next].body})
		}
		if len(buf) == 0 {
			continue
		}
		id := tr.begin("loadgen.Send", -1, int64(first))
		_, err := c.conn.Write(buf)
		tr.end(id)
		if err != nil {
			c.conn.Close() // the receiver sees the loss and bills the rest
			return
		}
	}
}

// recv reads connection ci's answers until all have arrived, the
// connection fails, or end passes; it returns the pool answer mismatches.
func (o *openLoop) recv(c *rawConn, ci, nconns int, end time.Time, tr *tracer) int {
	want := (len(o.reqs) - ci + nconns - 1) / nconns
	c.conn.SetReadDeadline(end)
	defer c.conn.SetReadDeadline(time.Time{})
	mismatch := 0
	for got := 0; got < want; {
		id := tr.begin("client.Recv", -1, int64(got))
		m, err := wire.ReadMsg(c.br)
		tr.end(id)
		if err != nil {
			return mismatch // unanswered requests stay failed
		}
		i := int(m.ID) - firstID
		if m.Type == wire.MsgDrain || i < 0 || i >= len(o.reqs) || i%nconns != ci {
			continue
		}
		got++
		o.kinds[i] = m.Type
		if m.Type != wire.MsgForwards {
			continue
		}
		o.latMs[i] = ms(time.Since(o.start) - o.due(i))
		if p := o.reqs[i].pool; p >= 0 && !bytes.Equal(m.Body, o.answers[p]) {
			mismatch++
		}
		if o.capture && i/nconns < hotCapture {
			o.captured[i] = m.Body
		}
	}
	return mismatch
}

// append adds another phase's requests and observations to o, in order.
func (o *openLoop) append(p *openLoop) {
	o.reqs = append(o.reqs, p.reqs...)
	o.latMs = append(o.latMs, p.latMs...)
	o.lateMs = append(o.lateMs, p.lateMs...)
	o.kinds = append(o.kinds, p.kinds...)
	o.mismatch += p.mismatch
}

// step summarizes the phase as one ladder rung.
func (o *openLoop) step() step {
	s := step{Rate: o.rate, Sent: len(o.reqs)}
	for _, k := range o.kinds {
		if k != wire.MsgForwards {
			s.Failed++
		}
	}
	s.Lat = summarize(o.latMs)
	s.LateTail = summarize(o.lateMs).Tail
	q := len(o.latMs) / 4
	s.Backlog = percentile(append([]float64(nil), o.latMs[len(o.latMs)-q:]...), 0.5) > hotLimitMs/2
	return s
}

// hotBench is one set-up of the decide-hot workload.
type hotBench struct {
	d       *daemon
	pacers  []*pacer
	conns   []*rawConn
	traffic *hotTraffic
	answers [][]byte
}

func setupHot(seed int64, st *setupTimes) (*hotBench, error) {
	d, err := startDaemon(st)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	b := &hotBench{d: d}
	for i := 0; i < serveConns; i++ {
		p, err := newPacer()
		if err != nil {
			return nil, err
		}
		b.pacers = append(b.pacers, p)
	}
	if b.traffic, err = newHotTraffic(seed); err != nil {
		return nil, err
	}
	if b.conns, err = dialConns(d.addr); err != nil {
		return nil, err
	}
	// Warm-up: every pool group once, which fills the memo cache with the
	// pool and records the answer each repeat must reproduce.
	b.answers = make([][]byte, hotPool)
	for i, body := range b.traffic.pool {
		c := b.conns[i%len(b.conns)]
		if _, err := c.conn.Write(wire.AppendMsg(nil, wire.Msg{Type: wire.MsgDecide, ID: uint64(i + firstID), Body: body})); err != nil {
			return nil, err
		}
		m, err := wire.ReadMsg(c.br)
		if err != nil || m.Type != wire.MsgForwards {
			return nil, fmt.Errorf("warm-up decide %d: %s, %v", i, wire.MsgName(m.Type), err)
		}
		b.answers[i] = m.Body
	}
	st.server += time.Since(t0)
	return b, nil
}

// close closes the connections and pacers and stops the daemon.
func (b *hotBench) close(res *result) serve.Stats {
	closeConns(b.conns)
	for _, p := range b.pacers {
		p.close()
	}
	return b.d.stop(res)
}

func dialConns(addr string) ([]*rawConn, error) {
	var conns []*rawConn
	for i := 0; i < serveConns; i++ {
		c, err := dialRaw(addr)
		if err != nil {
			return nil, err
		}
		conns = append(conns, c)
	}
	return conns, nil
}

func closeConns(conns []*rawConn) {
	for _, c := range conns {
		c.conn.Close()
	}
}

// phase offers rate for d on the bench's connections.
func (b *hotBench) phase(rate float64, d time.Duration, trs []*tracer, capture bool) (*openLoop, error) {
	reqs, err := b.traffic.schedule(int(rate * d.Seconds()))
	if err != nil {
		return nil, err
	}
	o := &openLoop{reqs: reqs, rate: rate, answers: b.answers, capture: capture, pacers: b.pacers}
	o.run(b.conns, trs)
	return o, nil
}

// hotRounds is how many times the fixed-rate and saturation phases
// alternate in an end-to-end run.
const hotRounds = 5

// hotWindow is how many DECIDEs each connection keeps in flight in the
// saturation phase. It stays below the daemon's 64-reply send buffer, so a
// host stall cannot get a session evicted as a slow client.
const hotWindow = 32

// saturation accumulates the closed-loop phase's outcome over its rounds.
type saturation struct {
	samples                []satSample   // offsets continue across rounds
	span                   time.Duration // closed-loop time so far
	sent, failed, mismatch int
}

// saturate keeps hotWindow requests in flight on every connection for d,
// sending the next request as each answer arrives, and adds the round to
// out with its answer offsets continuing from the earlier rounds.
func (b *hotBench) saturate(d time.Duration, out *saturation) error {
	var mu sync.Mutex
	var wg sync.WaitGroup
	var firstErr error
	start := time.Now()
	for ci, c := range b.conns {
		reqs, err := b.traffic.schedule(int(hotSatPerSec * d.Seconds()))
		if err != nil {
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := b.window(c, reqs, start, d)
			mu.Lock()
			defer mu.Unlock()
			if w.err != nil && firstErr == nil {
				firstErr = fmt.Errorf("saturation connection %d: %w", ci, w.err)
			}
			out.sent += w.sent
			out.failed += w.sent - w.forwards
			out.mismatch += w.mismatch
			for _, smp := range w.samples {
				smp.end += out.span
				out.samples = append(out.samples, smp)
			}
		}()
	}
	wg.Wait()
	out.span += d
	return firstErr
}

// summary returns the closed loop's answer rate and its latency summary,
// both read in arrival order.
func (s *saturation) summary() (float64, summary) {
	sort.Slice(s.samples, func(i, j int) bool { return s.samples[i].end < s.samples[j].end })
	ends := make([]time.Duration, len(s.samples))
	lat := make([]float64, len(s.samples))
	for i, smp := range s.samples {
		ends[i], lat[i] = smp.end, smp.latMs
	}
	return blockRate(ends, s.span), summarize(lat)
}

// hotSatPerSec sizes the saturation schedule per connection; a faster host
// cycles through it again.
const hotSatPerSec = 20000

// satSample is one FORWARDS answer of the closed loop: when it arrived,
// as an offset from the phase start, and its latency from send.
type satSample struct {
	end   time.Duration
	latMs float64
}

// windowRun is one connection's closed-loop outcome.
type windowRun struct {
	sent, forwards, mismatch int
	samples                  []satSample
	err                      error
}

// window runs one connection's closed pipelined loop for d from start,
// then collects the requests still in flight.
func (b *hotBench) window(c *rawConn, reqs []hotReq, start time.Time, d time.Duration) windowRun {
	var w windowRun
	var buf []byte
	var sentAt []time.Duration
	send := func() error {
		r := reqs[w.sent%len(reqs)]
		buf = wire.AppendMsg(buf[:0], wire.Msg{Type: wire.MsgDecide, ID: uint64(w.sent + firstID), Body: r.body})
		w.sent++
		sentAt = append(sentAt, time.Since(start))
		_, err := c.conn.Write(buf)
		return err
	}
	for i := 0; i < hotWindow; i++ {
		if w.err = send(); w.err != nil {
			return w
		}
	}
	c.conn.SetReadDeadline(start.Add(d + failLatMs*time.Millisecond))
	defer c.conn.SetReadDeadline(time.Time{})
	for got := 0; got < w.sent; {
		m, err := wire.ReadMsg(c.br)
		if err != nil {
			w.err = err
			return w
		}
		if m.Type == wire.MsgDrain {
			continue
		}
		got++
		at := time.Since(start)
		i := int(m.ID) - firstID
		if i < 0 || i >= len(sentAt) {
			w.err = fmt.Errorf("answer to unknown request ID %d", m.ID)
			return w
		}
		if m.Type == wire.MsgForwards {
			w.forwards++
			w.samples = append(w.samples, satSample{end: at, latMs: ms(at - sentAt[i])})
			if p := reqs[i%len(reqs)].pool; p >= 0 && !bytes.Equal(m.Body, b.answers[p]) {
				w.mismatch++
			}
		}
		if at < d {
			if w.err = send(); w.err != nil {
				return w
			}
		}
	}
	return w
}

// ladder offers each rate of hotLadder for d on fresh connections and
// reports every rung and the highest sustained rate, stopping at the first
// rung that is not sustained. Its rungs are noted, not gated: a host stall
// of a few ms gets a session evicted at high rates, which makes the
// sustained rate vary by a third between runs on a shared 2-CPU host.
func (b *hotBench) ladder(d time.Duration, res *result) {
	var steps []step
	for _, rate := range hotLadder {
		closeConns(b.conns)
		var err error
		if b.conns, err = dialConns(b.d.addr); err != nil {
			res.fail("decide-hot ladder: %v", err)
			return
		}
		a := b.d.srv.Stats()
		o, err := b.phase(rate, d, nil, false)
		if err != nil {
			res.fail("decide-hot ladder: %v", err)
			return
		}
		s := o.step()
		steps = append(steps, s)
		res.note("ladder %6g/s: %d sent, %d failed, latency from due %s ms, lateness tail %.3f ms, backlog %v, serve.cache_hit_frac %.3f",
			rate, s.Sent, s.Failed, s.Lat, s.LateTail, s.Backlog, hitFrac(a, b.d.srv.Stats()))
		if o.mismatch > 0 {
			res.fail("decide-hot: %d pool repeats answered differently at %g/s", o.mismatch, rate)
		}
		if !s.passes(hotLimitMs, hotLateLimitMs) {
			break
		}
	}
	res.note("decide_max_rps %g (p99 limit %g ms from due, lateness limit %g ms, no failures, no backlog)",
		maxRate(steps, hotLimitMs, hotLateLimitMs), hotLimitMs, hotLateLimitMs)
}

func runDecideHot(cfg config, res *result) error {
	b, setups, setupS, err := setUp(func(st *setupTimes) (*hotBench, error) {
		return setupHot(cfg.Seed, st)
	}, func(b *hotBench) { b.close(res) })
	if err != nil {
		return err
	}

	if !cfg.Trace {
		// The fixed-rate and saturation phases alternate in rounds, so a
		// stall of the shared host lasting a few seconds falls on a share
		// of each phase's windows rather than on all of one phase.
		fixed := &openLoop{rate: hotFixedRate}
		var sat saturation
		var fixedCache, satCache cacheUse
		for r := 0; r < hotRounds; r++ {
			runtime.GC() // the previous saturation round's garbage
			s0 := b.d.srv.Stats()
			o, err := b.phase(hotFixedRate, cfg.phase(0.3/hotRounds), nil, false)
			if err != nil {
				return err
			}
			fixed.append(o)
			s1 := b.d.srv.Stats()
			fixedCache.add(s0, s1)
			if err := b.saturate(cfg.phase(0.45/hotRounds), &sat); err != nil {
				return err
			}
			satCache.add(s1, b.d.srv.Stats())
		}
		fs := fixed.step()
		satRate, satLat := sat.summary()
		res.note("decide-hot fixed phase: %d requests at %g/s in %d rounds, %d failed, latency from due %s ms, generator lateness p%.4g %.3f ms, serve.cache_hit_frac %.3f",
			fs.Sent, fs.Rate, hotRounds, fs.Failed, fs.Lat, 100*tailLevel(fs.Sent), fs.LateTail, fixedCache.frac())
		if fs.LateTail > hotLateLimitMs {
			res.note("decide-hot fixed phase INVALID: generator lateness %.3f ms exceeds %.1f ms, so its latencies are not a measurement",
				fs.LateTail, hotLateLimitMs)
		}
		res.note("decide-hot saturation: %d DECIDEs in flight, %.0f answers/s (median over %d blocks), latency from send %s ms, %d sent, %d failed, serve.cache_hit_frac %.3f",
			serveConns*hotWindow, satRate, rateBlocks, satLat, sat.sent, sat.failed, satCache.frac())
		if fixed.mismatch+sat.mismatch > 0 {
			res.fail("decide-hot: %d pool repeats answered differently from their first answer", fixed.mismatch+sat.mismatch)
		}
		res.Attempted = int64(fs.Sent + sat.sent)
		res.Failed = int64(fs.Failed + sat.failed)
		b.ladder(cfg.phase(0.025), res)
		final := b.close(res)
		noteDaemon(res, final)
		reportEndToEnd(res, setupS, satRate, satLat)
		return nil
	}

	// Traced run: the fixed rate untraced, then traced with the first
	// requests' frames and answers captured for replay.
	s0 := b.d.srv.Stats()
	p0 := snapProc()
	plain, err := b.phase(hotFixedRate, cfg.phase(0.5), nil, false)
	if err != nil {
		return err
	}
	p1 := snapProc()
	s1 := b.d.srv.Stats()
	runtime.GC()
	epoch := time.Now()
	trs := make([]*tracer, 2*len(b.conns))
	for i := range trs {
		trs[i] = newTracer(epoch)
	}
	p2 := snapProc()
	traced, err := b.phase(hotFixedRate, cfg.phase(0.5), trs, true)
	if err != nil {
		return err
	}
	p3 := snapProc()
	final := b.close(res)
	ps, ts := plain.step(), traced.step()
	if plain.mismatch+traced.mismatch > 0 {
		res.fail("decide-hot: %d pool repeats answered differently from their first answer", plain.mismatch+traced.mismatch)
	}
	res.Attempted, res.Failed = int64(ps.Sent+ts.Sent), int64(ps.Failed+ts.Failed)

	rp, err := newReplayer(b.d.dep.NW, b.d.views, newTracer(epoch))
	if err != nil {
		return err
	}
	for i, body := range traced.captured {
		if body == nil {
			continue
		}
		d, err := wire.DecodeDecide(traced.reqs[i].body)
		if err != nil {
			return err
		}
		if err := rp.request(d.Frame, int64(i)); err != nil {
			return err
		}
		if err := rp.forwards(body, int64(i)); err != nil {
			return err
		}
	}
	trs = append(trs, rp.tr)
	agg := aggregate(trs...)
	rp.report(res, agg)
	res.perLayer("fail_frac", "frac", float64(ps.Failed)/float64(ps.Sent))
	res.perLayer("routing.decisions", "count", float64(rp.decisions))
	res.perLayer("serve.cache_hit_frac", "frac", hitFrac(s0, s1))
	res.perLayer("serve.cache_evictions", "count", float64(s1.CacheEvictions-s0.CacheEvictions))
	res.perLayer("loadgen.late_p99_ms", "ms", ps.LateTail)
	reportShed(res, final)
	reportSetup(res, setups)
	reportProc(res, deltaProc(p0, p1, int64(ps.Sent)), deltaProc(p2, p3, int64(ts.Sent)))
	zeroLayers(res)
	res.note("serve and loadgen metrics come from the untraced half (%d requests at %g/s, latency from due %s ms, serve.cache_hit_frac %.3f); "+
		"routing, steiner, wire and network from replaying %d captured requests",
		ps.Sent, ps.Rate, ps.Lat, hitFrac(s0, s1), rp.decisions)
	return publishSpans(cfg, res, agg, trs...)
}
