package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported tail percentile.
const minTail = 10

// percentile returns the p-quantile (0 ≤ p ≤ 1) of xs by linear
// interpolation between closest ranks. xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	if p <= 0 {
		return xs[0]
	}
	if p >= 1 {
		return xs[len(xs)-1]
	}
	pos := p * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// tailLevel is the highest percentile, capped at p99, that leaves at least
// minTail of n samples beyond it. It is 0 when n cannot support any tail.
func tailLevel(n int) float64 {
	if n <= minTail {
		return 0
	}
	return math.Min(0.99, 1-float64(minTail)/float64(n))
}

// windowSize is the tail window: a sample of at least 2·windowSize values
// in time order is cut into windows of about that many values, and the tail
// reported is the median of the windows' p99s, so a stall of the shared host
// moves the windows it spans rather than the run's figure.
const windowSize = 1000

// summary is the median and the supported tail of one latency sample.
type summary struct {
	N    int
	P50  float64
	Tail float64 // value at TailP
	// TailP is the percentile level Tail was read at (see tailLevel).
	TailP float64
	// Windows is how many windows the tail is the median of (1: none).
	Windows int
}

// summarize reads the median and tail of xs, which must be in time order;
// xs is left unchanged.
func summarize(xs []float64) summary {
	s := summary{N: len(xs), Windows: 1, TailP: tailLevel(len(xs))}
	if len(xs) == 0 {
		return s
	}
	s.P50 = percentile(append([]float64(nil), xs...), 0.5)
	s.Windows = len(xs) / windowSize
	if s.Windows < 2 {
		s.Windows = 1
		s.Tail = percentile(append([]float64(nil), xs...), s.TailP)
		return s
	}
	w := len(xs) / s.Windows
	s.TailP = tailLevel(w)
	tails := make([]float64, s.Windows)
	for i := range tails {
		tails[i] = percentile(append([]float64(nil), xs[i*w:(i+1)*w]...), s.TailP)
	}
	s.Tail = median(tails)
	return s
}

func (s summary) String() string {
	tail := fmt.Sprintf("p%.4g %.4f", 100*s.TailP, s.Tail)
	if s.Windows > 1 {
		tail = fmt.Sprintf("median of %d window p%.4g %.4f", s.Windows, 100*s.TailP, s.Tail)
	}
	return fmt.Sprintf("p50 %.4f, %s (n=%d)", s.P50, tail, s.N)
}

// median returns the median of xs (sorted in place).
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// rateBlocks is how many blocks of consecutive completions a run's rate is
// read over: the rate reported is the median of the blocks' rates, so a
// stall of the shared host moves the blocks it spans rather than the run's
// figure.
const rateBlocks = 32

// blockRate returns the median completion rate per second over rateBlocks
// blocks of equally many consecutive completions, given each completion's
// offset from the start; ends is sorted in place. With fewer completions
// than blocks it is the mean rate over span.
func blockRate(ends []time.Duration, span time.Duration) float64 {
	n := len(ends) / rateBlocks
	if n < 1 {
		return float64(len(ends)) / span.Seconds()
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
	rates := make([]float64, 0, rateBlocks)
	for b := 0; (b+1)*n < len(ends); b++ {
		if dt := ends[(b+1)*n] - ends[b*n]; dt > 0 {
			rates = append(rates, float64(n)/dt.Seconds())
		}
	}
	return median(rates)
}

// step is one measured rung of an open-loop rate ladder.
type step struct {
	Rate     float64 // offered requests/s
	Sent     int     // requests attempted
	Failed   int     // SHED, ERROR, transport loss or eviction
	Lat      summary // latency from due time, ms
	LateTail float64 // generator lateness at the tail level, ms
	// Backlog reports latency still rising at the end of the step: the
	// last quarter's median exceeded half the limit.
	Backlog bool
}

// passes reports whether the step is sustained: no failures, tail latency
// within limit, a generator that kept to its schedule, and no backlog.
func (s step) passes(limitMs, lateLimitMs float64) bool {
	return s.Sent > 0 && s.Failed == 0 && s.Lat.N > minTail && s.Lat.Tail <= limitMs &&
		s.LateTail <= lateLimitMs && !s.Backlog
}

// maxRate returns the highest ladder rate sustained before the first step
// that fails, given steps in increasing rate order. A ladder whose first
// step already fails sustains nothing and returns 0.
func maxRate(steps []step, limitMs, lateLimitMs float64) float64 {
	best := 0.0
	for _, s := range steps {
		if !s.passes(limitMs, lateLimitMs) {
			break
		}
		best = s.Rate
	}
	return best
}

// fingerprint is an order-sensitive digest of a run's exact outputs.
type fingerprint struct {
	h   hash.Hash64
	buf [8]byte
}

func newFingerprint() *fingerprint { return &fingerprint{h: fnv.New64a()} }

// add folds each value into the digest.
func (f *fingerprint) add(vs ...int64) {
	for _, v := range vs {
		binary.LittleEndian.PutUint64(f.buf[:], uint64(v))
		f.h.Write(f.buf[:])
	}
}

func (f *fingerprint) sum() uint64 { return f.h.Sum64() }
