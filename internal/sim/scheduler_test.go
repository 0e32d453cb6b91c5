package sim

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"
)

// TestSchedulerOrdering: a lane executes its events in time order regardless
// of scheduling order, and its clock ends at the last event's time.
func TestSchedulerOrdering(t *testing.T) {
	var ln lane
	for _, node := range []int{3, 1, 2} {
		ln.schedule(event{time: float64(node), kind: evCrash, from: node})
	}
	var order []int
	for h := append(eventHeap(nil), ln.q...); len(h) > 0; {
		order = append(order, h.pop().from)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
	r := &kernelRun{dead: make([]bool, 4)}
	r.advance(&ln, math.Inf(1))
	if ln.now != 3 || len(ln.q) != 0 || !r.dead[1] || !r.dead[2] || !r.dead[3] {
		t.Fatalf("after advance: now %v, %d queued, dead %v", ln.now, len(ln.q), r.dead)
	}
}

// TestSchedulerFIFOTieBreak: events at the same time fire in the order they
// were scheduled (the lane's sequence counter breaks the tie).
func TestSchedulerFIFOTieBreak(t *testing.T) {
	var ln lane
	for i := 0; i < 10; i++ {
		ln.schedule(event{time: 5, from: i})
	}
	for i := 0; len(ln.q) > 0; i++ {
		if got := ln.q.pop().from; got != i {
			t.Fatalf("same-time event %d popped at position %d", got, i)
		}
	}
}

// containerHeapQueue is the container/heap implementation the hand-rolled
// heap replaced, kept as the reference for the randomized equivalence test
// below.
type containerHeapQueue []event

func (q containerHeapQueue) Len() int            { return len(q) }
func (q containerHeapQueue) Less(i, j int) bool  { return eventBefore(&q[i], &q[j]) }
func (q containerHeapQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *containerHeapQueue) Push(x interface{}) { *q = append(*q, x.(event)) }
func (q *containerHeapQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// TestEventQueueMatchesContainerHeap proves the hand-rolled heap pops in
// exactly the order container/heap does: (time, tile, seq) is a strict total
// order, so the sequences must match element for element under any
// interleaving of pushes and pops.
func TestEventQueueMatchesContainerHeap(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 50; trial++ {
		var got eventHeap
		var want containerHeapQueue
		var seq int64
		same := func(g, w event) bool { return g.time == w.time && g.tile == w.tile && g.seq == w.seq }
		for op := 0; op < 400; op++ {
			if len(want) > 0 && r.Intn(3) == 0 {
				g, w := got.pop(), heap.Pop(&want).(event)
				if !same(g, w) {
					t.Fatalf("trial %d op %d: popped (%v,%d,%d), container/heap popped (%v,%d,%d)",
						trial, op, g.time, g.tile, g.seq, w.time, w.tile, w.seq)
				}
				continue
			}
			// Coarse times and few tiles force frequent exact ties so the
			// tile and seq tie-breaks are exercised, not just the time order.
			e := event{time: float64(r.Intn(20)), tile: int32(r.Intn(3)), seq: seq}
			seq++
			got.push(e)
			heap.Push(&want, e)
		}
		for len(want) > 0 {
			g, w := got.pop(), heap.Pop(&want).(event)
			if !same(g, w) {
				t.Fatalf("trial %d drain: popped (%v,%d,%d), want (%v,%d,%d)", trial, g.time, g.tile, g.seq, w.time, w.tile, w.seq)
			}
		}
		if len(got) != 0 {
			t.Fatalf("trial %d: %d events left in hand-rolled heap", trial, len(got))
		}
	}
}
