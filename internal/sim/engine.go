package sim

import (
	"fmt"
	"math"

	"gmp/internal/geom"
	"gmp/internal/network"
	"gmp/internal/planar"
	"gmp/internal/view"
	"gmp/internal/wire"
)

// Packet is one multicast packet copy in flight. It carries exactly the
// state the paper's protocols put on the wire: the remaining destination
// list with its header locations, the hop count, the PERIMODE flag with its
// perimeter-traversal state, and — for the source-routed SMT baseline only —
// the embedded routing tree.
type Packet struct {
	// Dests are the node IDs this copy is still responsible for.
	Dests []int
	// Locs are the destination locations as the wire header carries them,
	// parallel to Dests. Decisions route on these — a relay node knows a
	// destination's position only from the packet (§2), so staleness or
	// error in the header is exactly what the protocols see. The engine
	// stamps them at Start from its network's advertised positions.
	Locs []geom.Point
	// Hops is the number of transmissions this copy has undergone.
	Hops int
	// Perimeter is the paper's PERIMODE flag.
	Perimeter bool
	// Peri is the face-traversal state, valid while Perimeter is set.
	Peri planar.State
	// Route, when non-nil, is a children adjacency (node → children) of a
	// source-computed routing tree, used by SMT source routing.
	Route map[int][]int
	// Anchor is the node ID this copy is steered toward before the next
	// re-partitioning, or -1 when unused. LGT protocols (LGS/LGK) only
	// re-partition at subtree roots; relays in between forward greedily
	// toward the anchor.
	Anchor int
	// Session indexes the concurrent session this copy belongs to (always
	// 0 in single-task runs).
	Session int
}

// Clone deep-copies the packet, so every transmitted copy owns its state:
// the copy's Dests/Locs never alias p's.
func (p *Packet) Clone() *Packet {
	q := *p
	q.Dests = append([]int(nil), p.Dests...)
	q.Locs = append([]geom.Point(nil), p.Locs...)
	// Route is immutable after the source builds it; sharing is safe.
	return &q
}

// LocOf returns the header location carried for destination id. The id must
// be present in Dests; asking for anything else is a protocol bug.
func (p *Packet) LocOf(id int) geom.Point {
	for i, d := range p.Dests {
		if d == id {
			return p.Locs[i]
		}
	}
	panic(fmt.Sprintf("sim: destination %d not in packet header", id))
}

// Strip removes every occurrence of node from Dests, keeping Locs parallel
// and the remaining order, and reports how many entries it removed. It is
// the one header-edit rule for delivery at a hop and for retiring a
// destination that left the group.
func (p *Packet) Strip(node int) int {
	kept := p.Dests[:0]
	keptL := p.Locs[:0]
	for i, d := range p.Dests {
		if d != node {
			kept = append(kept, d)
			keptL = append(keptL, p.Locs[i])
		}
	}
	n := len(p.Dests) - len(kept)
	p.Dests, p.Locs = kept, keptL
	return n
}

// CloneFor returns a clone of p carrying only the given destinations (each
// must be present in p.Dests); the header locations follow the subset. The
// ids slice is adopted, not copied — pass a fresh slice.
func (p *Packet) CloneFor(ids []int) *Packet {
	q := *p
	q.Dests = ids
	q.Locs = make([]geom.Point, len(ids))
	for i, id := range ids {
		q.Locs[i] = p.LocOf(id)
	}
	return &q
}

// Forward is one element of a decision's output: transmit Pkt to neighbor
// To, or abandon the copy when To is DropCopy.
type Forward struct {
	// To is the next-hop node ID, or DropCopy.
	To int
	// Pkt is the copy to transmit (the engine clones it on send, so
	// decisions may share one packet across forwards).
	Pkt *Packet
}

// DropCopy, used as Forward.To, records that the protocol intentionally
// abandoned the copy (for example LGS upon meeting a void destination). The
// drop is billed to the packet's own session.
const DropCopy = -1

// DropWatchdog, used as Forward.To, records that the perimeter watchdog
// killed a looping face traversal after exhausting its bounded recovery
// (view.PerimeterStep returning StepWatchdog). Billed as ReasonWatchdog to
// the packet's own session.
const DropWatchdog = -2

// DropReason classifies why a packet copy died. Every copy the engine
// originates either delivers all its destinations or is killed with exactly
// one reason, so per-reason counts account for every loss.
type DropReason int

const (
	// ReasonHopBudget: the copy exceeded the per-packet hop budget.
	ReasonHopBudget DropReason = iota
	// ReasonProtocol: the protocol intentionally abandoned the copy (a
	// DropCopy forward — e.g. LGS meeting a void destination).
	ReasonProtocol
	// ReasonStranded: a decision returned no forwards for a copy that still
	// had destinations aboard (e.g. a flood relay suppressing a duplicate).
	ReasonStranded
	// ReasonWatchdog: the perimeter watchdog killed a looping face
	// traversal (a DropWatchdog forward).
	ReasonWatchdog
	// ReasonLinkLoss: the frame was lost on the air and ARQ was off, so the
	// sender never learned.
	ReasonLinkLoss
	// ReasonCrashedReceiver: the frame was addressed to a crashed node and
	// ARQ was off.
	ReasonCrashedReceiver
	// ReasonSenderCrashed: the sender's radio died before the
	// (re)transmission went out.
	ReasonSenderCrashed
	// ReasonARQExhausted: ARQ retries ran out and no handler re-route
	// salvaged the copy.
	ReasonARQExhausted
	// ReasonInvalidSend: the decision addressed an out-of-range node or the
	// sender itself (a protocol bug; see TaskMetrics.InvalidSends).
	ReasonInvalidSend
	// ReasonLeft: the destination left the multicast group mid-session (a
	// ChurnPlan leave) and was retired from the packet header. Unlike every
	// other reason this does not kill the copy — DropsByReason[ReasonLeft]
	// counts retirement events, DestDropsByReason[ReasonLeft] the retired
	// destinations — but it participates in the conservation invariant the
	// same way, so delivered + dropped still accounts for every originated
	// destination exactly.
	ReasonLeft

	// NumDropReasons sizes per-reason counter arrays.
	NumDropReasons
)

// String implements fmt.Stringer.
func (r DropReason) String() string {
	switch r {
	case ReasonHopBudget:
		return "hop-budget"
	case ReasonProtocol:
		return "protocol"
	case ReasonStranded:
		return "stranded"
	case ReasonWatchdog:
		return "watchdog"
	case ReasonLinkLoss:
		return "link-loss"
	case ReasonCrashedReceiver:
		return "crashed-receiver"
	case ReasonSenderCrashed:
		return "sender-crashed"
	case ReasonARQExhausted:
		return "arq-exhausted"
	case ReasonInvalidSend:
		return "invalid-send"
	case ReasonLeft:
		return "left"
	default:
		return fmt.Sprintf("DropReason(%d)", int(r))
	}
}

// Handler is a routing protocol instance. Each hop is a pure decision
// function from (local view, packet) to a forward list that the engine
// applies in order; handlers never touch the engine and never see beyond
// the view's 1-hop horizon. Decisions must not mutate the packet they are
// given — derive copies via Clone/CloneFor. Implementations live in the
// routing package.
type Handler interface {
	// Start makes the source's forwarding decision. The engine has already
	// built the packet: destinations (minus the source itself) sorted
	// ascending, header locations stamped, hop count zero.
	Start(v view.NodeView, pkt *Packet) []Forward
	// Decide makes a relay node's forwarding decision for an arriving copy.
	// Destinations already delivered at this node have been stripped by the
	// engine (the packet always has at least one left).
	Decide(v view.NodeView, pkt *Packet) []Forward
}

// RedundantHandler marks handlers that intentionally route redundant
// concurrent copies toward the same destination (MCFR's two face
// directions). For their sessions the engine tolerates duplicate deliveries
// (first copy wins, later ones count DuplicateDeliveries) and defers the
// per-destination half of drop billing to end-of-run settlement: a
// destination is charged its first drop reason only if no copy ever
// delivered it, which keeps delivered+dropped == DestCount exact even though
// several copies carry the same destination. Copy-level drop counters stay
// immediate.
type RedundantHandler interface {
	Handler
	// RedundantCopies reports that the protocol duplicates destinations
	// across concurrent copies by design.
	RedundantCopies() bool
}

// redundantCopies reports whether h opts into redundant-copy accounting.
func redundantCopies(h Handler) bool {
	rh, ok := h.(RedundantHandler)
	return ok && rh.RedundantCopies()
}

// TaskMetrics aggregates what the paper measures for one multicast task.
type TaskMetrics struct {
	// Transmissions is the total number of packet transmissions — the
	// paper's "total number of hops" (Figure 11).
	Transmissions int
	// EnergyJ is the total energy in joules under the §5.3 model
	// (Figure 14).
	EnergyJ float64
	// Delivered maps each reached destination to the hop count at which it
	// was first reached (Figure 12 averages these).
	Delivered map[int]int
	// DropsByReason counts packet-copy deaths by cause.
	DropsByReason [NumDropReasons]int
	// DestDropsByReason counts, per cause, the destinations that were still
	// aboard each dying copy. Together with Delivered this makes every
	// originated destination accountable: for partition-discipline protocols
	// (each destination rides exactly one live copy at any time),
	// DestCount == len(Delivered) + Σ DestDropsByReason — the conservation
	// invariant AuditTask checks.
	DestDropsByReason [NumDropReasons]int
	// DuplicateDeliveries counts arrivals at an already-delivered
	// destination. Always zero under partition-discipline protocols;
	// region flooding (geocast) produces them by design.
	DuplicateDeliveries int
	// Retransmissions counts data frames re-sent by hop-by-hop ARQ. Each is
	// also counted in Transmissions.
	Retransmissions int
	// LinkFailures counts ARQ give-up events (retries exhausted on a link).
	// Each bans the link for the rest of the session; the copy itself dies
	// as ReasonARQExhausted only when no handler re-route salvages it.
	LinkFailures int
	// Acks counts ACK frames sent by receivers under ARQ. ACK energy is in
	// EnergyJ, but ACKs are not data transmissions and stay out of
	// Transmissions (the paper's hop metric).
	Acks int
	// InvalidSends counts attempted transmissions to nodes out of radio
	// range. Always zero for correct protocols; tests assert it.
	InvalidSends int
	// DestCount is the size of the task's destination set, including
	// mid-session joins spliced aboard by a ChurnPlan.
	DestCount int
	// JoinsSpliced counts churn joins that made it aboard the packet header
	// mid-session (each also increments DestCount at splice time).
	JoinsSpliced int
	// JoinsMissed counts churn joins that never became destinations: the
	// node was already a member, had already left, left again before any
	// packet passed by, or the session finished first.
	JoinsMissed int
	// EnergyByNode, when per-node accounting is enabled via
	// Engine.SetEnergyLedger, maps node IDs to joules drawn during the
	// task (transmit energy at senders, receive energy at listeners).
	EnergyByNode map[int]float64
}

// Failed reports whether the task missed at least one destination — the
// paper's failure criterion for Figure 15.
func (m *TaskMetrics) Failed() bool { return len(m.Delivered) < m.DestCount }

// Drops counts packet copies the routing layer gave up on: hop budget
// exhausted, protocol-intentional abandonment, or a watchdog kill.
func (m *TaskMetrics) Drops() int {
	return m.DropsByReason[ReasonHopBudget] + m.DropsByReason[ReasonProtocol] +
		m.DropsByReason[ReasonWatchdog]
}

// LossDrops counts packet copies lost to injected faults: frames lost on
// the air or addressed to a crashed node (without ARQ), copies from a
// crashed sender, or copies whose ARQ retries were exhausted without a
// salvaging re-route.
func (m *TaskMetrics) LossDrops() int {
	return m.DropsByReason[ReasonLinkLoss] + m.DropsByReason[ReasonCrashedReceiver] +
		m.DropsByReason[ReasonSenderCrashed] + m.DropsByReason[ReasonARQExhausted]
}

// TotalDrops counts every packet-copy death, over all reasons.
func (m *TaskMetrics) TotalDrops() int {
	var total int
	for _, n := range m.DropsByReason {
		total += n
	}
	return total
}

// DroppedDests counts the destinations aboard dying copies, over all
// reasons — the loss side of the conservation invariant.
func (m *TaskMetrics) DroppedDests() int {
	var total int
	for _, n := range m.DestDropsByReason {
		total += n
	}
	return total
}

// EligibleDests counts the destinations that did not leave mid-session —
// the fair denominator for delivery ratios under churn.
func (m *TaskMetrics) EligibleDests() int {
	return m.DestCount - m.DestDropsByReason[ReasonLeft]
}

// TotalHops is the paper's Figure 11 metric.
func (m *TaskMetrics) TotalHops() int { return m.Transmissions }

// AvgHopsPerDest is the paper's Figure 12 metric, averaged over *reached*
// destinations. Returns 0 when nothing was delivered.
func (m *TaskMetrics) AvgHopsPerDest() float64 {
	if len(m.Delivered) == 0 {
		return 0
	}
	var sum int
	for _, h := range m.Delivered {
		sum += h
	}
	return float64(sum) / float64(len(m.Delivered))
}

// Session describes one multicast job inside a concurrent script.
type Session struct {
	// Start is the virtual time the source begins its task.
	Start float64
	// Handler is the protocol instance driving this session. Sessions must
	// not share stateful handler instances (construct one per session).
	Handler Handler
	// Src and Dests define the task.
	Src   int
	Dests []int
}

// SessionMetrics extends TaskMetrics with timing observed under concurrent
// traffic.
type SessionMetrics struct {
	TaskMetrics
	// StartTime echoes the session's start.
	StartTime float64
	// DeliveredAt maps each reached destination to its virtual delivery
	// time (absolute; subtract StartTime for latency).
	DeliveredAt map[int]float64
}

// MaxLatency returns the worst per-destination delivery latency, or 0 when
// nothing was delivered.
func (m *SessionMetrics) MaxLatency() float64 {
	var worst float64
	for _, at := range m.DeliveredAt {
		if l := at - m.StartTime; l > worst {
			worst = l
		}
	}
	return worst
}

// MeanLatency returns the mean per-destination delivery latency.
func (m *SessionMetrics) MeanLatency() float64 {
	if len(m.DeliveredAt) == 0 {
		return 0
	}
	var sum float64
	for _, at := range m.DeliveredAt {
		sum += at - m.StartTime
	}
	return sum / float64(len(m.DeliveredAt))
}

// TraceEvent is one copy event, reported to the engine's observer in apply
// order: a transmission, or — with Died set — the death of a copy. Dests and
// Pkt alias the kernel's copy, so reporting costs no allocation; they are
// valid only during the callback (trace.Collector keeps detached copies).
type TraceEvent struct {
	// Time is the virtual time of the event in seconds (the send time for a
	// transmission).
	Time float64
	// From is the transmitting node, or the node where the copy died. To is
	// the receiving node; for a death it is the addressed neighbor of an
	// invalid send or a frame lost in flight, the DropCopy/DropWatchdog
	// sentinel of a protocol drop, and -1 otherwise.
	From, To int
	// Hops is the copy's hop count (after this transmission, for a
	// transmission).
	Hops int
	// Dests is the destination set carried by the copy.
	Dests []int
	// Perimeter reports whether the copy is in perimeter mode.
	Perimeter bool
	// Died marks the copy's death, for Reason.
	Died   bool
	Reason DropReason
	// Pkt is the copy itself, read-only.
	Pkt *Packet
}

// TraceFunc observes every copy event.
type TraceFunc func(TraceEvent)

// Engine runs multicast tasks over a network with a given radio model:
// one at a time via RunTask (the experiment harness's mode) or many
// overlapping in virtual time via RunScript. Transmissions from one node
// serialize — a node's radio is half-duplex and sends one frame at a time —
// which is what makes concurrent-load latency meaningful. RunHops runs one
// task in hop order instead, for callers that want the copy rules without
// the radio's timing.
type Engine struct {
	net     *network.Network
	radio   RadioParams
	maxHops int

	views    view.Provider
	tracer   TraceFunc
	perNode  bool
	dynFrame bool

	faults FaultPlan
	churn  ChurnPlan
	arq    ARQConfig // normalized against radio when set
	runSeq int64     // runs since SetFaults, for per-run fault seed derivation

	// sharding, when non-zero, selects the tiled scheduling policy
	// (shard.go) instead of the single queue.
	sharding ShardConfig
	// run is the last kernel run, kept so the next one reuses its lanes —
	// packet free lists, queue storage — and scratch slices: one lane under
	// the single-queue policy, one per network tile under the tiled one.
	run kernelRun
}

// NewEngine builds an engine over net. maxHops is the per-packet hop budget
// (the paper uses 100 in §5.4); 0 disables the budget. Negative budgets are
// a programming error and panic rather than silently meaning "unlimited".
func NewEngine(net *network.Network, radio RadioParams, maxHops int) *Engine {
	if maxHops < 0 {
		panic(fmt.Sprintf("sim: negative hop budget %d (use 0 for unlimited)", maxHops))
	}
	return &Engine{net: net, radio: radio, maxHops: maxHops}
}

// SetFaults installs a fault-injection plan for subsequent runs. The zero
// plan restores the ideal collision-free MAC exactly (a strict no-op).
func (e *Engine) SetFaults(p FaultPlan) error {
	if err := p.Validate(e.net.Len()); err != nil {
		return err
	}
	e.faults = p
	e.runSeq = 0
	return nil
}

// Faults returns the installed fault plan.
func (e *Engine) Faults() FaultPlan { return e.faults }

// SetARQ configures hop-by-hop acknowledged delivery for subsequent runs.
// The zero config disables ARQ.
func (e *Engine) SetARQ(a ARQConfig) error {
	if err := a.Validate(); err != nil {
		return err
	}
	if a.Enabled {
		a = a.normalized(e.radio)
	}
	e.arq = a
	return nil
}

// ARQ returns the installed (normalized) ARQ configuration.
func (e *Engine) ARQ() ARQConfig { return e.arq }

// Net returns the underlying network (the engine's global physics; handlers
// never see it — they get per-node views).
func (e *Engine) Net() *network.Network { return e.net }

// SetViews installs the per-node view provider handed to forwarding
// decisions. Unset, the engine defaults to the ideal oracle over its own
// network without a perimeter substrate — enough for protocols that never
// enter perimeter mode; anything using face traversal needs a provider
// built with a planar graph.
func (e *Engine) SetViews(p view.Provider) { e.views = p }

// Radio returns the radio parameters.
func (e *Engine) Radio() RadioParams { return e.radio }

// MaxHops returns the per-packet hop budget (0 = unlimited).
func (e *Engine) MaxHops() int { return e.maxHops }

// Now returns the kernel clock: the time of the last event executed, over
// every lane — 0 before the first run, the end of the last run after it.
func (e *Engine) Now() float64 {
	var now float64
	for _, ln := range e.run.lanes {
		now = math.Max(now, ln.now)
	}
	return now
}

// SetTracer installs (or clears, with nil) the copy-event observer. Tracing
// does not affect simulation behavior. It requires the single-queue policy:
// tiled runs panic with a tracer installed, because trace order across tiles
// is not deterministic.
func (e *Engine) SetTracer(fn TraceFunc) { e.tracer = fn }

// SetEnergyLedger toggles per-node energy accounting (TaskMetrics.
// EnergyByNode). It costs one map update per listener per transmission, so
// it is off by default; the lifetime experiment turns it on.
func (e *Engine) SetEnergyLedger(on bool) { e.perNode = on }

// SetDynamicFrames switches airtime and energy from the fixed Table 1
// message size to each packet's actual on-air size: the application payload
// (RadioParams.MessageBytes) plus the wire-format header carrying the
// destination locations and perimeter state. The paper charges a flat
// 128 B per transmission; this mode is the A-5 ablation quantifying what
// that simplification hides.
func (e *Engine) SetDynamicFrames(on bool) { e.dynFrame = on }

// frameBytes returns the accounted on-air size of a packet.
func (e *Engine) frameBytes(pkt *Packet) int {
	if !e.dynFrame {
		return e.radio.MessageBytes
	}
	return e.radio.MessageBytes + wire.HeaderSize(len(pkt.Dests), pkt.Perimeter)
}

// RunTask simulates one multicast task from src to dests using handler h
// and returns its metrics. Destinations equal to src count as delivered at
// hop 0.
func (e *Engine) RunTask(h Handler, src int, dests []int) TaskMetrics {
	res := e.RunScript([]Session{{Handler: h, Src: src, Dests: dests}})
	return res[0].TaskMetrics
}

// RunScript simulates overlapping multicast sessions on the shared medium
// and returns per-session metrics in input order, under the single-queue
// policy or, with SetSharding installed, the tiled one. Session starts must
// be finite and non-negative, and churn events must name script sessions;
// anything else is a programming error and panics.
func (e *Engine) RunScript(sessions []Session) []SessionMetrics {
	return e.newRun(sessions).execute()
}

// RunHops runs one session under the hop-ordered policy: every transmission
// arrives exactly one hop after it is sent, with no airtime and no
// half-duplex serialization, so copies arrive in nondecreasing hop order and
// in send order at equal hops — a breadth-first walk of the session's copy
// tree. maxHops is the hop budget for this call (0 = unlimited). The handler
// must not retain a packet it was shown past its call: the policy recycles
// every copy once its decision is applied. The policy models no faults,
// ARQ, churn or sharding; an engine with any installed is a programming
// error and panics.
func (e *Engine) RunHops(s Session, maxHops int) SessionMetrics {
	if maxHops < 0 {
		panic(fmt.Sprintf("sim: negative hop budget %d (use 0 for unlimited)", maxHops))
	}
	if e.faults.Active() || e.arq.Enabled || e.churn.Active() || e.sharding != (ShardConfig{}) {
		panic("sim: RunHops models no faults, ARQ, churn or sharding; clear them first")
	}
	r := e.newRun([]Session{s})
	r.hopOrdered, r.maxHops = true, maxHops
	return r.execute()[0]
}
