// Package sim is the discrete-event simulation kernel that replaces ns-2.27
// in this reproduction. It provides a virtual clock with an event queue, a
// radio/energy model parameterized by the paper's Table 1, and a packet
// delivery engine that accounts transmissions, per-destination hop counts and
// energy exactly as §5 measures them.
//
// The MAC layer is ideal (no contention or loss): every metric the paper
// reports — hops, energy, failed tasks — is a deterministic function of
// forwarding decisions and neighborhoods, so an 802.11 contention model would
// only add noise, not change the comparison (see DESIGN.md §3).
//
// There is one kernel (kernel.go): typed events on per-lane heaps, and one
// implementation of the copy rules. It runs under one of three scheduling
// policies, selected by the entry point and the ShardConfig zero value:
//
//   - Single queue (the default): one lane, one virtual clock, strictly
//     (time, seq)-ordered, single threaded. One fault stream per run; ARQ
//     give-up runs inline at the arrival of the last failed attempt; churn
//     applies at session start and at every hop arrival; SetTracer works.
//   - Tiled (Engine.SetSharding): one lane per network tile, advanced in
//     conservative time windows, so one large network saturates many cores
//     while staying byte-identical for any shard count. Per-tile fault
//     streams; ARQ give-up is an event in the sender's lane one backed-off
//     timeout later; churn applies at window barriers (shard_churn.go);
//     tracing panics.
//   - Hop-ordered (Engine.RunHops): one session on one lane, each
//     transmission arriving exactly one hop later with no airtime or
//     serialization, so copies arrive in hop order, FIFO at equal hops. No
//     faults, ARQ, churn or sharding; copies are recycled after each
//     decision. The gmpd route walk runs on it.
//
// The single-queue and hop-ordered policies report every copy event — a
// transmission or a copy's death — to the observer installed with
// SetTracer. See DESIGN.md §2.4.
package sim

// eventKind discriminates the kernel's typed events. Events are plain data
// rather than closures: the tiled policy routes them to the lane owning
// their node, and the churn barrier finds and edits the packets they hold.
type eventKind uint8

const (
	// evStart begins a session at its source node.
	evStart eventKind = iota
	// evReceive resolves one frame's fate at its arrival time.
	evReceive
	// evRetransmit fires an ARQ retry at the sender.
	evRetransmit
	// evGiveUp fires the sender's final ARQ timeout (tiled policy only):
	// ban the link, offer the copy to the NackHandler, kill it if no
	// re-route salvages it.
	evGiveUp
	// evCrash and evRecover flip a node's radio state.
	evCrash
	evRecover
)

// event is one scheduled event. (time, tile, seq) is the kernel's strict
// total order: tile and seq identify the originating lane and its sequence
// counter at creation, both deterministic. Under the single-queue policy the
// tile is always 0, so the order is (time, seq): events fire in time order,
// FIFO among equal times. Fields are ordered to pack the struct into 64
// bytes.
type event struct {
	time float64
	seq  int64
	pkt  *Packet

	from, to int
	sess     int
	attempt  int
	tile     int32
	kind     eventKind
	lost     bool
}

// eventBefore is the kernel's (time, tile, seq) order.
func eventBefore(a, b *event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	if a.tile != b.tile {
		return a.tile < b.tile
	}
	return a.seq < b.seq
}

// eventHeap is a min-heap of events in the kernel's order. It is hand-rolled
// rather than built on container/heap: the standard heap boxes every element
// into an interface{}, one allocation per Push, which a million-node event
// loop cannot afford. The order is strict and total — (tile, seq) is unique
// per run — so every pop returns the unique minimum and the execution
// sequence is identical to the container/heap version
// (TestEventQueueMatchesContainerHeap proves this on randomized workloads).
type eventHeap []event

func (q eventHeap) before(i, j int) bool { return eventBefore(&q[i], &q[j]) }

func (q *eventHeap) push(e event) {
	*q = append(*q, e)
	q.up(len(*q) - 1)
}

func (q *eventHeap) pop() event {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	e := h[n]
	h[n] = event{} // drop the packet reference
	*q = h[:n]
	if n > 0 {
		h[:n].down(0)
	}
	return e
}

func (q eventHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.before(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (q eventHeap) down(i int) {
	n := len(q)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		best := l
		if r := l + 1; r < n && q.before(r, l) {
			best = r
		}
		if !q.before(best, i) {
			return
		}
		q[i], q[best] = q[best], q[i]
		i = best
	}
}
