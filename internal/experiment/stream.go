package experiment

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"strings"
	"time"

	"gmp/internal/routing"
	"gmp/internal/serve"
	"gmp/internal/sim"
	"gmp/internal/view"
	"gmp/internal/wire"
)

// This file is the streaming-route throughput campaign (E-X14): the
// decision daemon's whole-route mode — one ROUTE request, a server-side
// multicast walk, a HOP stream, one ROUTE_DONE summary — measured against
// the per-hop baseline (one DECIDE round trip per decision over the same
// routes), with the decision memo cache on and off. Four arms on four
// fresh daemons, same workload seed, so every arm walks the same routes.
//
// Two oracle layers make the speed claim trustworthy:
//
//   - Ledger oracles per arm: conservation of answers on the daemon side,
//     every offered route completed on the client side, and the memo cache
//     counters proving the cache arm actually exercised (and the no-cache
//     arm actually bypassed) memoization. Memoization must be invisible:
//     within each mode, the cache-on and cache-off arms must perform
//     identical walks — byte-identical streamed summaries once the
//     cache-hit counter is masked, identical decision and transmission
//     totals per hop. (The two modes are NOT held to identical totals:
//     the per-hop wire format cannot carry the perimeter watchdog state
//     the streamed walker keeps in memory — see internal/serve/walk.go —
//     so per-hop walks may lawfully spend a few extra transmissions in
//     perimeter episodes. The engine, not the per-hop client, is the
//     streamed mode's fidelity referee.)
//   - A wire-level replay audit: fresh routes between known node
//     positions are streamed twice (cold, then memoized) against a live
//     daemon and replayed offline on the simulation engine. The summaries
//     must match the engine exactly — delivered sets, per-destination hop
//     counts and drop reasons, transmission totals — and the memoized
//     second pass must stream byte-identical HOP frames while answering
//     every decision from the cache.
//
// Like E-X13, throughput numbers are wall-clock measurements and vary run
// to run; every oracle check is exact.

// StreamArmConfig is one (mode × cache) arm.
type StreamArmConfig struct {
	// Name identifies the arm in the report.
	Name string
	// Stream selects the streamed ROUTE protocol; false walks per hop.
	Stream bool
	// Cache enables the daemon's decision memo cache.
	Cache bool
}

// StreamConfig parameterizes the streaming campaign.
type StreamConfig struct {
	// Deploy is the field every daemon serves.
	Deploy serve.DeployConfig
	// Protocol is the routing protocol every route uses. The cross-arm
	// hop-equality oracle assumes a non-redundant protocol (the walk and
	// the per-hop client then perform identical transmissions).
	Protocol string
	// Conns is the number of concurrent clients; Routes the per-connection
	// route count; K the destination-group size per route.
	Conns  int
	Routes int
	K      int
	// HopBudget bounds each copy's hop count, server- and client-side.
	HopBudget int
	// ReplayRoutes is how many fresh routes the wire-level replay audit
	// streams and replays on the engine.
	ReplayRoutes int
	// Seed derives the workload and the replay route picks.
	Seed int64
	// Progress, when non-nil, observes per-phase completion.
	Progress ProgressFunc
	// Ctx, when non-nil, cancels the campaign between phases.
	Ctx context.Context
}

// StreamArms is the campaign's fixed arm set: both modes, cache on and off.
func StreamArms() []StreamArmConfig {
	return []StreamArmConfig{
		{Name: "stream", Stream: true, Cache: true},
		{Name: "stream-nocache", Stream: true, Cache: false},
		{Name: "perhop", Stream: false, Cache: true},
		{Name: "perhop-nocache", Stream: false, Cache: false},
	}
}

// DefaultStreamConfig is the full campaign on the paper's 600-node field.
func DefaultStreamConfig() StreamConfig {
	return StreamConfig{
		Deploy:       serve.DefaultDeploy(),
		Protocol:     ProtoGMP,
		Conns:        4,
		Routes:       25,
		K:            20,
		HopBudget:    100,
		ReplayRoutes: 8,
		Seed:         1,
	}
}

// QuickStreamConfig is the CI smoke variant: smaller field, lighter load,
// same arms and the same oracles.
func QuickStreamConfig() StreamConfig {
	cfg := DefaultStreamConfig()
	cfg.Deploy = serve.DeployConfig{Nodes: 150, Width: 500, Height: 500,
		RadioRange: 100, Planarizer: cfg.Deploy.Planarizer, Seed: 1}
	cfg.Conns = 2
	cfg.Routes = 6
	cfg.K = 8
	cfg.ReplayRoutes = 4
	return cfg
}

// Validate checks the campaign parameters.
func (cfg StreamConfig) Validate() error {
	if err := serve.CheckServable(cfg.Protocol); err != nil {
		return fmt.Errorf("%w: %v", ErrBadProtocol, err)
	}
	if sp, _ := routing.Lookup(cfg.Protocol); sp.Flags&routing.FlagConcurrent != 0 {
		return fmt.Errorf("experiment: stream campaign needs a non-redundant protocol (got %s)", cfg.Protocol)
	}
	if cfg.Conns < 1 || cfg.Routes < 1 || cfg.K < 1 {
		return fmt.Errorf("experiment: stream needs conns, routes and k >= 1")
	}
	if cfg.ReplayRoutes < 1 {
		return fmt.Errorf("experiment: stream needs at least one replay-audit route")
	}
	if cfg.HopBudget < 1 {
		return fmt.Errorf("experiment: stream needs a positive hop budget")
	}
	return nil
}

// StreamArm is one arm's outcome.
type StreamArm struct {
	Name   string
	Stream bool
	Cache  bool
	// Load is the client-side route ledger.
	Load *serve.LoadReport
	// Stats is the daemon's counter snapshot after drain.
	Stats serve.Stats
	// Violations lists this arm's oracle failures.
	Violations []string
}

// StreamReport is the campaign outcome.
type StreamReport struct {
	Arms []StreamArm
	// ReplayRoutes / ReplayCacheHits summarize the wire-replay audit: how
	// many routes were streamed+replayed, and how many memoized decisions
	// the second passes answered from the cache.
	ReplayRoutes    int
	ReplayCacheHits int64
	// ReplayViolations lists replay-audit oracle failures.
	ReplayViolations []string
}

// Violations collects every oracle failure, arms first.
func (r *StreamReport) Violations() []string {
	var out []string
	for _, a := range r.Arms {
		out = append(out, a.Violations...)
	}
	out = append(out, r.ReplayViolations...)
	return out
}

// Speedup returns the streamed-over-per-hop routes/s ratio for the
// cache-on arms (0 when either rate is unavailable).
func (r *StreamReport) Speedup() float64 {
	var stream, perhop float64
	for _, a := range r.Arms {
		if a.Stream && a.Cache {
			stream = a.Load.RoutesPerSec()
		}
		if !a.Stream && a.Cache {
			perhop = a.Load.RoutesPerSec()
		}
	}
	if perhop <= 0 {
		return 0
	}
	return stream / perhop
}

// Fingerprint renders the run-stable fields — per arm the mode, completed
// routes and violation count, then the replay and oracle lines (the replay
// audit runs on one connection). Rates, latency and the arms' cache split
// depend on timing and interleaving and are left out.
func (r *StreamReport) Fingerprint() string {
	var b strings.Builder
	for _, a := range r.Arms {
		fmt.Fprintf(&b, "arm=%s stream=%t cache=%t routes=%d violations=%d\n",
			a.Name, a.Stream, a.Cache, a.Load.Routes, len(a.Violations))
	}
	b.WriteString(r.replayLines())
	return b.String()
}

// Render formats the report for terminal output.
func (r *StreamReport) Render() string {
	var b strings.Builder
	b.WriteString("E-X14: streamed route continuation vs per-hop decisions\n")
	fmt.Fprintf(&b, "  %-15s %8s %9s %8s %8s %8s %8s  %s\n",
		"arm", "routes", "routes/s", "hops/s", "decides", "hits", "miss", "lat ms p50/p95/p99")
	for _, a := range r.Arms {
		lat := "-"
		if len(a.Load.LatencyMs) > 0 {
			lat = fmt.Sprintf("%.1f/%.1f/%.1f", a.Load.Percentile(0.50),
				a.Load.Percentile(0.95), a.Load.Percentile(0.99))
		}
		fmt.Fprintf(&b, "  %-15s %8d %9.0f %8.0f %8d %8d %8d  %s\n",
			a.Name, a.Load.Routes, a.Load.RoutesPerSec(), a.Load.RouteHopsPerSec(),
			a.Load.Sent, a.Stats.CacheHits, a.Stats.CacheMisses, lat)
	}
	if s := r.Speedup(); s > 0 {
		fmt.Fprintf(&b, "  speedup   streamed %.2fx per-hop (cache on, same routes)\n", s)
	}
	b.WriteString(r.replayLines())
	return b.String()
}

// replayLines renders the replay-audit summary and the oracle verdict.
func (r *StreamReport) replayLines() string {
	var b strings.Builder
	fmt.Fprintf(&b, "  replay    %d routes streamed cold+memoized and engine-replayed (%d cached decisions)\n",
		r.ReplayRoutes, r.ReplayCacheHits)
	b.WriteString(oracleVerdict("  oracle    ", "PASS (0 violations: conservation exact; cache on/off walks identical\n"+
		"            within each mode; streamed replays match the engine exactly)\n", r.Violations()))
	return b.String()
}

// RunStream executes the campaign. The returned error covers plumbing
// only; oracle violations land in the report.
func RunStream(cfg StreamConfig) (*StreamReport, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	dep, err := serve.NewDeployment(cfg.Deploy)
	if err != nil {
		return nil, err
	}
	arms := StreamArms()
	phases := len(arms) + 1
	s := seeds{base: cfg.Seed}
	rep := &StreamReport{Arms: make([]StreamArm, 0, len(arms))}
	for ai, ac := range arms {
		if cfg.Ctx != nil && cfg.Ctx.Err() != nil {
			return nil, cfg.Ctx.Err()
		}
		arm, err := runStreamArm(cfg, dep, s, ac)
		if err != nil {
			return nil, fmt.Errorf("stream arm %q: %w", ac.Name, err)
		}
		rep.Arms = append(rep.Arms, arm)
		if cfg.Progress != nil {
			cfg.Progress(ai+1, phases)
		}
	}
	auditStreamArms(cfg, rep)
	if err := runStreamReplay(cfg, dep, s, rep); err != nil {
		return nil, fmt.Errorf("stream replay audit: %w", err)
	}
	if cfg.Progress != nil {
		cfg.Progress(phases, phases)
	}
	return rep, nil
}

// runStreamArm boots one daemon, walks the workload's routes in the arm's
// mode, drains, and audits the arm-local ledgers.
func runStreamArm(cfg StreamConfig, dep *serve.Deployment, s seeds, ac StreamArmConfig) (StreamArm, error) {
	arm := StreamArm{Name: ac.Name, Stream: ac.Stream, Cache: ac.Cache}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return arm, err
	}
	scfg := serve.Config{RouteBudget: cfg.HopBudget}
	if !ac.Cache {
		scfg.CacheSize = -1
	}
	srv := serve.New(dep, scfg)
	go srv.Serve(ln)
	defer srv.Drain()

	mode := "perhop"
	if ac.Stream {
		mode = "stream"
	}
	// Every arm uses the same workload seed on purpose: identical PRNG
	// streams generate identical routes, which is what makes the cross-arm
	// identity oracles meaningful.
	arm.Load = serve.RunLoad(serve.LoadConfig{
		Addr: ln.Addr().String(), Protocol: cfg.Protocol,
		Conns: cfg.Conns, Requests: cfg.Routes, K: cfg.K,
		Width: cfg.Deploy.Width, Height: cfg.Deploy.Height,
		Seed:      s.streamLoad(),
		Timeout:   60 * time.Second,
		RouteMode: mode, HopBudget: cfg.HopBudget,
		RecordRoutes: ac.Stream,
	})
	arm.Stats = srv.Drain().Stats

	bad := func(format string, args ...any) {
		arm.Violations = append(arm.Violations,
			fmt.Sprintf("%s: ", ac.Name)+fmt.Sprintf(format, args...))
	}
	if err := arm.Stats.CheckConservation(); err != nil {
		bad("%v", err)
	}
	offered := int64(cfg.Conns * cfg.Routes)
	if arm.Load.Routes != offered {
		bad("completed %d/%d routes (errors %d, sheds %d, transport %d, dial %d)",
			arm.Load.Routes, offered, arm.Load.Errors, arm.Load.Sheds,
			arm.Load.TransportErrors, arm.Load.DialErrors)
	}
	if ac.Cache && arm.Stats.CacheHits+arm.Stats.CacheMisses == 0 {
		bad("cache arm never consulted the memo cache")
	}
	if !ac.Cache && arm.Stats.CacheHits+arm.Stats.CacheMisses != 0 {
		bad("no-cache arm recorded cache traffic (hits %d, misses %d)",
			arm.Stats.CacheHits, arm.Stats.CacheMisses)
	}
	if ac.Stream {
		for _, d := range arm.Load.RouteDones {
			if len(d.Outcomes) == 0 {
				bad("streamed summary with no destination outcomes")
				break
			}
		}
	}
	return arm, nil
}

// auditStreamArms runs the cross-arm identity oracles: cache on/off
// streamed walks must be identical, and per-hop arms must perform exactly
// the transmissions the streamed summaries reported.
func auditStreamArms(cfg StreamConfig, rep *StreamReport) {
	byName := map[string]*StreamArm{}
	for i := range rep.Arms {
		byName[rep.Arms[i].Name] = &rep.Arms[i]
	}
	stream, nocache := byName["stream"], byName["stream-nocache"]
	bad := func(format string, args ...any) {
		rep.ReplayViolations = append(rep.ReplayViolations,
			"cross-arm: "+fmt.Sprintf(format, args...))
	}
	if stream != nil && nocache != nil {
		a, b := canonicalSummaries(stream.Load.RouteDones), canonicalSummaries(nocache.Load.RouteDones)
		if len(a) != len(b) {
			bad("cache on/off summary counts differ: %d vs %d", len(a), len(b))
		} else {
			for i := range a {
				if !bytes.Equal(a[i], b[i]) {
					bad("cache on/off streamed walks diverge (summary %d differs after cache-hit masking)", i)
					break
				}
			}
		}
	}
	// Within each mode, memoization must not change the walk: identical
	// transmission totals, and (per-hop) identical decision counts. The two
	// modes are not compared — the per-hop wire format drops watchdog state
	// the streamed walker keeps, so cross-mode totals may lawfully differ.
	if stream != nil && nocache != nil {
		if got, want := nocache.Load.RouteHops, stream.Load.RouteHops; got != want {
			bad("stream cache off performed %d transmissions, cache on %d", got, want)
		}
	}
	perhop, phNocache := byName["perhop"], byName["perhop-nocache"]
	if perhop != nil && phNocache != nil {
		if got, want := phNocache.Load.RouteHops, perhop.Load.RouteHops; got != want {
			bad("perhop cache off performed %d transmissions, cache on %d", got, want)
		}
		if got, want := phNocache.Load.Sent, perhop.Load.Sent; got != want {
			bad("perhop cache off issued %d decisions, cache on %d", got, want)
		}
	}
}

// canonicalSummaries encodes route summaries with the cache-hit counter
// masked (the only field memoization may legitimately change), sorted so
// connection-completion order cannot alias a real divergence.
func canonicalSummaries(dones []wire.RouteDoneBody) [][]byte {
	out := make([][]byte, 0, len(dones))
	for _, d := range dones {
		d.CacheHits = 0
		out = append(out, wire.EncodeRouteDone(d))
	}
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i], out[j]) < 0 })
	return out
}

// runStreamReplay is the fidelity audit: fresh routes between known node
// positions, streamed twice over the wire (cold, then memoized) and
// replayed offline on the simulation engine.
func runStreamReplay(cfg StreamConfig, dep *serve.Deployment, s seeds, rep *StreamReport) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := serve.New(dep, serve.Config{RouteBudget: cfg.HopBudget})
	go srv.Serve(ln)
	defer srv.Drain()

	c, err := serve.Dial(ln.Addr().String(), cfg.Protocol, 60*time.Second)
	if err != nil {
		return err
	}
	defer c.Close()

	bad := func(format string, args ...any) {
		rep.ReplayViolations = append(rep.ReplayViolations,
			"replay: "+fmt.Sprintf(format, args...))
	}
	for i := 0; i < cfg.ReplayRoutes; i++ {
		if cfg.Ctx != nil && cfg.Ctx.Err() != nil {
			return cfg.Ctx.Err()
		}
		rng := rand.New(rand.NewSource(s.streamReplay(i)))
		src, dests := pickDistinctNodes(rng, dep.NW.Len(), cfg.K)
		f := &wire.Frame{Source: dep.NW.Pos(src)}
		f.NextHop = f.Source
		for _, d := range dests {
			f.Dests = append(f.Dests, dep.NW.Pos(d))
		}
		frame, err := wire.Encode(f, 0)
		if err != nil {
			return err
		}

		routeOnce := func() (wire.RouteDoneBody, [][]byte, error) {
			var hops [][]byte
			reply, err := c.Route(wire.RouteBody{Frame: frame}, func(hb wire.HopBody) {
				hops = append(hops, append([]byte(nil), hb.Frame...))
			})
			if err != nil {
				return wire.RouteDoneBody{}, nil, err
			}
			if reply.Kind != wire.MsgRouteDone {
				return wire.RouteDoneBody{}, nil, fmt.Errorf("route answered %d, want ROUTE_DONE", reply.Kind)
			}
			return reply.Done, hops, nil
		}
		cold, coldHops, err := routeOnce()
		if err != nil {
			return fmt.Errorf("route %d cold: %w", i, err)
		}
		warm, warmHops, err := routeOnce()
		if err != nil {
			return fmt.Errorf("route %d memoized: %w", i, err)
		}
		rep.ReplayRoutes++
		rep.ReplayCacheHits += int64(warm.CacheHits)

		// Memoization must be invisible on the wire: identical summary
		// (cache-hit counter aside) and byte-identical HOP frames.
		mcold, mwarm := cold, warm
		mcold.CacheHits, mwarm.CacheHits = 0, 0
		if !bytes.Equal(wire.EncodeRouteDone(mcold), wire.EncodeRouteDone(mwarm)) {
			bad("route %d: memoized summary differs from cold", i)
		}
		if warm.CacheHits != warm.Decisions {
			bad("route %d: memoized pass answered %d/%d decisions from cache",
				i, warm.CacheHits, warm.Decisions)
		}
		if len(coldHops) != len(warmHops) {
			bad("route %d: hop streams differ in length: %d vs %d", i, len(coldHops), len(warmHops))
		} else {
			for h := range coldHops {
				if !bytes.Equal(coldHops[h], warmHops[h]) {
					bad("route %d: HOP %d not byte-identical between cold and memoized", i, h)
					break
				}
			}
		}

		// Engine replay: the summary must describe exactly the walk the
		// simulation engine performs for the same task.
		en := sim.NewEngine(dep.NW, sim.DefaultRadioParams(), cfg.HopBudget)
		en.SetViews(view.NewOracle(dep.NW, dep.PG))
		h, err := routing.Make(cfg.Protocol, routing.Ctx{Lambda: 0.5, LambdaSet: true})
		if err != nil {
			return err
		}
		m := en.RunTask(h, src, dests)
		if int(cold.Hops) != m.Transmissions {
			bad("route %d: summary hops %d, engine transmissions %d", i, cold.Hops, m.Transmissions)
		}
		delivered := 0
		var drops [sim.NumDropReasons]int
		for _, o := range cold.Outcomes {
			if o.Status != wire.RouteDelivered {
				if r, ok := statusDropReason(o.Status); ok {
					drops[r]++
				} else {
					bad("route %d: unknown outcome status %d", i, o.Status)
				}
				continue
			}
			delivered++
			want, ok := m.Delivered[int(o.Node)]
			if !ok {
				bad("route %d: summary delivered %d, engine did not", i, o.Node)
			} else if int(o.Hops) != want {
				bad("route %d: dest %d delivered at %d hops, engine says %d", i, o.Node, o.Hops, want)
			}
		}
		if delivered != len(m.Delivered) {
			bad("route %d: summary delivered %d dests, engine %d", i, delivered, len(m.Delivered))
		}
		for r := 0; r < int(sim.NumDropReasons); r++ {
			if drops[r] != m.DestDropsByReason[r] {
				bad("route %d: drop reason %d: summary %d, engine %d",
					i, r, drops[r], m.DestDropsByReason[r])
			}
		}
	}
	st := srv.Drain().Stats
	if err := st.CheckConservation(); err != nil {
		bad("%v", err)
	}
	return nil
}

// statusDropReason inverts the daemon's reason→status mapping for the
// engine-replay comparison.
func statusDropReason(status byte) (sim.DropReason, bool) {
	switch status {
	case wire.RouteDropProtocol:
		return sim.ReasonProtocol, true
	case wire.RouteDropWatchdog:
		return sim.ReasonWatchdog, true
	case wire.RouteDropHopBudget:
		return sim.ReasonHopBudget, true
	case wire.RouteDropInvalid:
		return sim.ReasonInvalidSend, true
	case wire.RouteDropStranded:
		return sim.ReasonStranded, true
	}
	return 0, false
}

// pickDistinctNodes picks a source and k distinct destination node IDs.
func pickDistinctNodes(r *rand.Rand, n, k int) (int, []int) {
	src := r.Intn(n)
	seen := map[int]bool{src: true}
	var dests []int
	for len(dests) < k {
		d := r.Intn(n)
		if !seen[d] {
			seen[d] = true
			dests = append(dests, d)
		}
	}
	return src, dests
}
