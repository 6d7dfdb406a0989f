package stats

import (
	"fmt"
	"math"
)

// Sketch is a mergeable streaming quantile sketch with a relative-error
// guarantee (the DDSketch construction of Masson, Rim & Lee, VLDB
// 2019): observations are counted into logarithmically spaced buckets
// whose width is chosen so every quantile estimate is within a relative
// error Alpha of an exact sample quantile.
//
// A Sketch is a pure function of the observation multiset: bucket
// counts are integers, so feeding the same observations in any order —
// or splitting them across shards and merging the shards' sketches in
// any order or grouping — produces the exact same state, bucket for
// bucket. That is what lets the simulation kernel report tail
// percentiles that are bit-identical regardless of how many workers the
// iteration stream was sharded across. Merge is the bucket-wise sum, so it is associative and
// commutative exactly, not just within tolerance.
type Sketch struct {
	alpha   float64
	gamma   float64
	lnGamma float64

	n    uint64
	zero uint64
	pos  denseStore // bucket counts for x > 0
	neg  denseStore // bucket counts of |x| for x < 0
}

// DefaultSketchAlpha is the default relative-error bound: estimates are
// within 1 % of an exact sample quantile.
const DefaultSketchAlpha = 0.01

// NewSketch creates a sketch with relative-error bound alpha in (0, 1);
// zero or negative means DefaultSketchAlpha. Its memory grows with
// ln(largest/smallest magnitude)/ln((1+alpha)/(1-alpha)), one counter
// per bucket in between: about 1040 buckets for nine decades at the
// default alpha, and proportionally more for a smaller alpha.
func NewSketch(alpha float64) *Sketch {
	if alpha <= 0 {
		alpha = DefaultSketchAlpha
	}
	if alpha >= 1 || math.IsNaN(alpha) {
		panic(fmt.Sprintf("stats: sketch alpha %v out of (0,1)", alpha))
	}
	gamma := (1 + alpha) / (1 - alpha)
	return &Sketch{
		alpha:   alpha,
		gamma:   gamma,
		lnGamma: math.Log(gamma),
	}
}

// Alpha reports the sketch's relative-error bound.
func (s *Sketch) Alpha() float64 { return s.alpha }

// N reports the number of observations.
func (s *Sketch) N() int { return int(s.n) }

// index maps a positive magnitude to its bucket: the smallest i with
// gamma^i >= x, so bucket i covers (gamma^(i-1), gamma^i].
func (s *Sketch) index(x float64) int {
	return int(math.Ceil(math.Log(x) / s.lnGamma))
}

// bucketValue is the estimate reported for bucket i: the point whose
// relative distance to both bucket edges is at most alpha.
func (s *Sketch) bucketValue(i int) float64 {
	return 2 * math.Pow(s.gamma, float64(i)) / (1 + s.gamma)
}

// Add records one observation. NaN and ±Inf observations are rejected
// loudly: NaN would vanish from every quantile, and an infinity has no
// logarithmic bucket.
func (s *Sketch) Add(x float64) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		panic(fmt.Sprintf("stats: %v observation added to sketch", x))
	}
	s.n++
	switch {
	case x > 0:
		s.pos.add(s.index(x), 1)
	case x < 0:
		s.neg.add(s.index(-x), 1)
	default:
		s.zero++
	}
}

// Quantile reports the estimate for quantile q in (0, 1): the value v
// such that |v - x|/|x| <= Alpha for the exact sample value x at rank
// floor(q*(N-1)). An empty sketch reports 0.
func (s *Sketch) Quantile(q float64) float64 {
	if q <= 0 || q >= 1 {
		panic(fmt.Sprintf("stats: quantile target %v out of (0,1)", q))
	}
	if s.n == 0 {
		return 0
	}
	target := uint64(math.Floor(q * float64(s.n-1)))
	var cum uint64
	// Ascending value order: negatives from largest magnitude down,
	// then zeros, then positives from smallest magnitude up.
	for j := len(s.neg.counts) - 1; j >= 0; j-- {
		cum += s.neg.counts[j]
		if cum > target {
			return -s.bucketValue(s.neg.offset + j)
		}
	}
	cum += s.zero
	if cum > target {
		return 0
	}
	last := -1
	for j, c := range s.pos.counts {
		if c == 0 {
			continue
		}
		last = j
		cum += c
		if cum > target {
			return s.bucketValue(s.pos.offset + j)
		}
	}
	// Unreachable when counts are consistent; report the largest bucket.
	if last >= 0 {
		return s.bucketValue(s.pos.offset + last)
	}
	return 0
}

// Merge folds o into s by bucket-wise count addition. Both sketches
// must have been built with the same alpha (bucket boundaries must
// line up). Merging is exact: the result is identical to a sketch fed
// both observation streams directly, whatever the order or grouping of
// merges. o is not modified; merging a nil or empty sketch is a no-op.
func (s *Sketch) Merge(o *Sketch) error {
	if o == nil || o.n == 0 {
		return nil
	}
	if o.alpha != s.alpha {
		return fmt.Errorf("stats: merging sketches with different alpha (%v vs %v)", s.alpha, o.alpha)
	}
	s.n += o.n
	s.zero += o.zero
	s.pos.merge(&o.pos)
	s.neg.merge(&o.neg)
	return nil
}

// denseStore is DDSketch's dense bucket store: counts[j] is the count
// of bucket offset+j. The covered index range only widens, in whole
// chunks, so a stream whose range is warm adds without allocating. A
// finite float64's bucket index is bounded (about ±37000 at the
// default alpha), and so is the store.
type denseStore struct {
	counts []uint64
	offset int
}

// storeChunk is the store's growth granule, in buckets: at the default
// alpha, 64 buckets span a factor of about 3.6 in magnitude.
const storeChunk = 64

// add counts c observations into bucket i.
func (d *denseStore) add(i int, c uint64) {
	if j := i - d.offset; j < 0 || j >= len(d.counts) {
		d.cover(i, i)
	}
	d.counts[i-d.offset] += c
}

// merge adds o's counts bucket-wise.
func (d *denseStore) merge(o *denseStore) {
	if len(o.counts) == 0 {
		return
	}
	d.cover(o.offset, o.offset+len(o.counts)-1)
	base := o.offset - d.offset
	for j, c := range o.counts {
		d.counts[base+j] += c
	}
}

// cover widens the store to hold buckets lo..hi, rounded out to whole
// chunks.
func (d *denseStore) cover(lo, hi int) {
	if n := len(d.counts); n > 0 {
		if lo >= d.offset && hi < d.offset+n {
			return
		}
		lo, hi = min(lo, d.offset), max(hi, d.offset+n-1)
	}
	lo &^= storeChunk - 1 // floor, for negative indices too
	hi = hi&^(storeChunk-1) + storeChunk
	counts := make([]uint64, hi-lo)
	if len(d.counts) > 0 {
		copy(counts[d.offset-lo:], d.counts)
	}
	d.counts, d.offset = counts, lo
}
