package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// exactSketchQuantile mirrors the sketch's rank convention on a sorted
// copy of the sample: the value at rank floor(q*(n-1)).
func exactSketchQuantile(sample []float64, q float64) float64 {
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	return s[int(math.Floor(q*float64(len(s)-1)))]
}

// wantClose asserts the sketch estimate is within the relative-error
// bound of the exact sample quantile.
func wantClose(t *testing.T, name string, got, want, alpha float64) {
	t.Helper()
	tol := alpha * math.Abs(want)
	if tol == 0 {
		tol = 1e-12
	}
	if math.Abs(got-want) > tol {
		t.Errorf("%s: got %v, want %v (±%v)", name, got, want, tol)
	}
}

func TestSketchMatchesExactQuantiles(t *testing.T) {
	streams := map[string]func(r *rand.Rand, n int) []float64{
		"uniform": func(r *rand.Rand, n int) []float64 {
			out := make([]float64, n)
			for i := range out {
				out[i] = 10 + 990*r.Float64()
			}
			return out
		},
		// Heavy right skew: most mass near zero, a long tail.
		"skewed": func(r *rand.Rand, n int) []float64 {
			out := make([]float64, n)
			for i := range out {
				out[i] = math.Exp(4 * r.Float64() * r.Float64() * r.Float64() * 3)
			}
			return out
		},
		// Two well-separated modes, as a bimodal latency profile.
		"bimodal": func(r *rand.Rand, n int) []float64 {
			out := make([]float64, n)
			for i := range out {
				if r.Float64() < 0.7 {
					out[i] = 50 + 10*r.Float64()
				} else {
					out[i] = 5000 + 500*r.Float64()
				}
			}
			return out
		},
	}
	targets := []float64{0.25, 0.50, 0.90, 0.95, 0.99}
	for name, gen := range streams {
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewSource(42))
			sample := gen(r, 20000)
			sk := NewSketch(0)
			for _, x := range sample {
				sk.Add(x)
			}
			if sk.N() != len(sample) {
				t.Fatalf("N = %d, want %d", sk.N(), len(sample))
			}
			for _, q := range targets {
				wantClose(t, name, sk.Quantile(q), exactSketchQuantile(sample, q), sk.Alpha())
			}
		})
	}
}

func TestSketchNegativeAndZeroValues(t *testing.T) {
	sample := make([]float64, 0, 3000)
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		sample = append(sample, -1000+900*r.Float64()) // negative
		sample = append(sample, 0)
		sample = append(sample, 100+900*r.Float64()) // positive
	}
	sk := NewSketch(0)
	for _, x := range sample {
		sk.Add(x)
	}
	for _, q := range []float64{0.05, 0.25, 0.50, 0.75, 0.95} {
		wantClose(t, "mixed-sign", sk.Quantile(q), exactSketchQuantile(sample, q), sk.Alpha())
	}
}

// TestSketchMergeMatchesDirect: splitting a stream across shards and
// merging must equal feeding the whole stream to one sketch — exactly,
// since merge is integer bucket addition.
func TestSketchMergeMatchesDirect(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	sample := make([]float64, 9001) // deliberately not divisible by shards
	for i := range sample {
		sample[i] = math.Exp(10 * r.Float64())
	}
	for _, shards := range []int{2, 3, 8} {
		direct := NewSketch(0)
		parts := make([]*Sketch, shards)
		for i := range parts {
			parts[i] = NewSketch(0)
		}
		for i, x := range sample {
			direct.Add(x)
			parts[i%shards].Add(x)
		}
		merged := NewSketch(0)
		for _, p := range parts {
			if err := merged.Merge(p); err != nil {
				t.Fatalf("merge: %v", err)
			}
		}
		if merged.N() != direct.N() {
			t.Fatalf("shards=%d: merged N %d, want %d", shards, merged.N(), direct.N())
		}
		for _, q := range []float64{0.01, 0.5, 0.95, 0.99} {
			if got, want := merged.Quantile(q), direct.Quantile(q); got != want {
				t.Errorf("shards=%d q=%v: merged %v != direct %v (merge must be exact)", shards, q, got, want)
			}
		}
	}
}

// TestSketchMergeAssociative: merge(a, merge(b, c)) == merge(merge(a, b), c),
// exactly, not just within tolerance.
func TestSketchMergeAssociative(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	make3 := func() (a, b, c *Sketch) {
		a, b, c = NewSketch(0), NewSketch(0), NewSketch(0)
		for i := 0; i < 5000; i++ {
			a.Add(r.NormFloat64()*100 + 500)
			b.Add(math.Exp(8 * r.Float64()))
			c.Add(r.Float64())
		}
		return
	}

	a1, b1, c1 := make3()
	left := NewSketch(0)
	left.Merge(a1)
	left.Merge(b1)
	left.Merge(c1) // ((a ∪ b) ∪ c)

	r = rand.New(rand.NewSource(9))
	a2, b2, c2 := make3()
	bc := NewSketch(0)
	bc.Merge(b2)
	bc.Merge(c2)
	right := NewSketch(0)
	right.Merge(a2)
	right.Merge(bc) // (a ∪ (b ∪ c))

	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		if l, rr := left.Quantile(q), right.Quantile(q); l != rr {
			t.Errorf("q=%v: ((a,b),c)=%v != (a,(b,c))=%v", q, l, rr)
		}
	}
	if left.N() != right.N() {
		t.Errorf("N mismatch: %d vs %d", left.N(), right.N())
	}
}

func TestSketchDegenerateShards(t *testing.T) {
	// Empty shard merges are no-ops.
	base := NewSketch(0)
	base.Add(5)
	if err := base.Merge(NewSketch(0)); err != nil {
		t.Fatalf("merging empty shard: %v", err)
	}
	if err := base.Merge(nil); err != nil {
		t.Fatalf("merging nil shard: %v", err)
	}
	if base.N() != 1 {
		t.Fatalf("N = %d after empty merges, want 1", base.N())
	}

	// Single-observation shard: quantiles collapse to that value.
	single := NewSketch(0)
	single.Add(123.0)
	for _, q := range []float64{0.01, 0.5, 0.99} {
		wantClose(t, "single", single.Quantile(q), 123.0, single.Alpha())
	}
	out := NewSketch(0)
	out.Merge(base)
	out.Merge(single)
	if out.N() != 2 {
		t.Fatalf("N = %d, want 2", out.N())
	}

	// Empty sketch reports 0 rather than panicking.
	if got := NewSketch(0).Quantile(0.5); got != 0 {
		t.Fatalf("empty sketch quantile = %v, want 0", got)
	}
}

func TestSketchRejectsBadInputs(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("NaN add", func() { NewSketch(0).Add(math.NaN()) })
	mustPanic("+Inf add", func() { NewSketch(0).Add(math.Inf(1)) })
	mustPanic("-Inf add", func() { NewSketch(0).Add(math.Inf(-1)) })
	mustPanic("q=0", func() { s := NewSketch(0); s.Add(1); s.Quantile(0) })
	mustPanic("q=1", func() { s := NewSketch(0); s.Add(1); s.Quantile(1) })
	mustPanic("alpha>=1", func() { NewSketch(1.5) })

	a := NewSketch(0.01)
	b := NewSketch(0.05)
	b.Add(3)
	if err := a.Merge(b); err == nil {
		t.Errorf("merging mismatched alphas should error")
	}
}

// refSketch is the bucket store as it stood before the dense store: a
// map of bucket counts per sign, read back in sorted key order. It
// shares the bucket index and estimate with Sketch, so the two must
// agree bit for bit.
type refSketch struct {
	sk       *Sketch // for index and bucketValue only
	n, zero  uint64
	pos, neg map[int]uint64
}

func newRefSketch() *refSketch {
	return &refSketch{sk: NewSketch(0), pos: map[int]uint64{}, neg: map[int]uint64{}}
}

func (r *refSketch) add(x float64) {
	r.n++
	switch {
	case x > 0:
		r.pos[r.sk.index(x)]++
	case x < 0:
		r.neg[r.sk.index(-x)]++
	default:
		r.zero++
	}
}

func (r *refSketch) merge(o *refSketch) {
	r.n += o.n
	r.zero += o.zero
	for i, c := range o.pos {
		r.pos[i] += c
	}
	for i, c := range o.neg {
		r.neg[i] += c
	}
}

func (r *refSketch) quantile(q float64) float64 {
	if r.n == 0 {
		return 0
	}
	target := uint64(math.Floor(q * float64(r.n-1)))
	var cum uint64
	neg := sortedBuckets(r.neg)
	for k := len(neg) - 1; k >= 0; k-- {
		if cum += r.neg[neg[k]]; cum > target {
			return -r.sk.bucketValue(neg[k])
		}
	}
	if cum += r.zero; cum > target {
		return 0
	}
	pos := sortedBuckets(r.pos)
	for _, i := range pos {
		if cum += r.pos[i]; cum > target {
			return r.sk.bucketValue(i)
		}
	}
	return r.sk.bucketValue(pos[len(pos)-1])
}

func sortedBuckets(store map[int]uint64) []int {
	keys := make([]int, 0, len(store))
	for i := range store {
		keys = append(keys, i)
	}
	sort.Ints(keys)
	return keys
}

// TestSketchMatchesMapStore feeds random streams of negatives, zeros
// and magnitudes from 1e-6 to 1e9 into shards, merges the shards in
// random groupings, and requires every N and quantile to equal the
// map-based reference's bit for bit.
func TestSketchMatchesMapStore(t *testing.T) {
	r := rand.New(rand.NewSource(2026))
	qs := []float64{0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999}
	for c := 0; c < 200; c++ {
		shards := 1 + r.Intn(6)
		got := make([]*Sketch, shards)
		want := make([]*refSketch, shards)
		for i := range got {
			got[i], want[i] = NewSketch(0), newRefSketch()
		}
		for i, n := 0, r.Intn(2000); i < n; i++ {
			var x float64
			switch k := r.Intn(10); {
			case k == 0:
				x = 0
			default:
				x = math.Pow(10, -6+15*r.Float64())
				if k <= 3 {
					x = -x
				}
			}
			sh := r.Intn(shards)
			got[sh].Add(x)
			want[sh].add(x)
		}
		// Fold the shards in a random grouping: repeatedly merge one
		// random shard into another until one remains.
		for len(got) > 1 {
			i, j := r.Intn(len(got)), r.Intn(len(got)-1)
			if j >= i {
				j++
			}
			if err := got[i].Merge(got[j]); err != nil {
				t.Fatal(err)
			}
			want[i].merge(want[j])
			got = append(got[:j], got[j+1:]...)
			want = append(want[:j], want[j+1:]...)
		}
		if got[0].N() != int(want[0].n) {
			t.Fatalf("case %d: N %d, reference %d", c, got[0].N(), want[0].n)
		}
		for _, q := range qs {
			if g, w := got[0].Quantile(q), want[0].quantile(q); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("case %d q=%v: %v, reference %v", c, q, g, w)
			}
		}
	}
}

// TestSketchAddAllocs pins Add at zero allocations once the stream's
// bucket range is warm.
func TestSketchAddAllocs(t *testing.T) {
	sk := NewSketch(0)
	xs := []float64{-250, -0.5, 0, 1e-3, 0.7, 3, 42, 1e4}
	for _, x := range xs {
		sk.Add(x)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, x := range xs {
			sk.Add(x)
		}
	})
	if allocs != 0 {
		t.Fatalf("a warm Add allocates %.1f objects; want 0", allocs)
	}
}

// BenchmarkSketchAdd measures one warm Add of a latency-like stream
// spanning three decades.
func BenchmarkSketchAdd(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = math.Pow(10, 3*r.Float64())
	}
	sk := NewSketch(0)
	for _, x := range xs {
		sk.Add(x)
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		sk.Add(xs[i&1023])
		i++
	}
}
