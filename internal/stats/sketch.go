package stats

import (
	"fmt"
	"math"
	"sort"
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
	pos  map[int]uint64 // bucket index -> count, for x > 0
	neg  map[int]uint64 // bucket index of |x| -> count, for x < 0
}

// DefaultSketchAlpha is the default relative-error bound: estimates are
// within 1 % of an exact sample quantile.
const DefaultSketchAlpha = 0.01

// NewSketch creates a sketch with relative-error bound alpha in (0, 1);
// zero or negative means DefaultSketchAlpha.
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
		pos:     make(map[int]uint64),
		neg:     make(map[int]uint64),
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

// Add records one observation. NaN observations are rejected loudly —
// they would otherwise vanish from every quantile.
func (s *Sketch) Add(x float64) {
	if math.IsNaN(x) {
		panic("stats: NaN observation added to sketch")
	}
	s.n++
	switch {
	case x > 0:
		s.pos[s.index(x)]++
	case x < 0:
		s.neg[s.index(-x)]++
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
	for _, i := range s.sortedKeys(s.neg, true) {
		cum += s.neg[i]
		if cum > target {
			return -s.bucketValue(i)
		}
	}
	cum += s.zero
	if cum > target {
		return 0
	}
	keys := s.sortedKeys(s.pos, false)
	for _, i := range keys {
		cum += s.pos[i]
		if cum > target {
			return s.bucketValue(i)
		}
	}
	// Unreachable when counts are consistent; report the largest bucket.
	if len(keys) > 0 {
		return s.bucketValue(keys[len(keys)-1])
	}
	return 0
}

// sortedKeys returns a store's bucket indices in ascending (or, for the
// negative store, descending-magnitude) order.
func (s *Sketch) sortedKeys(store map[int]uint64, descending bool) []int {
	keys := make([]int, 0, len(store))
	for i := range store {
		keys = append(keys, i)
	}
	if descending {
		sort.Sort(sort.Reverse(sort.IntSlice(keys)))
	} else {
		sort.Ints(keys)
	}
	return keys
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
	for i, c := range o.pos {
		s.pos[i] += c
	}
	for i, c := range o.neg {
		s.neg[i] += c
	}
	return nil
}
