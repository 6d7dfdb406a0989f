package prefetch

import (
	"fmt"
	"math/rand"
	"testing"

	"drhwsched/internal/assign"
	"drhwsched/internal/graph"
	"drhwsched/internal/model"
	"drhwsched/internal/schedule"
)

// shifted is b with every floor moved by d.
func shifted(b schedule.Instance, d model.Dur) schedule.Instance {
	b.ExecFloor, b.LoadFloor = b.ExecFloor.Add(d), b.LoadFloor.Add(d)
	b.TileFree = shiftAll(b.TileFree, d)
	b.PortFree = shiftAll(b.PortFree, d)
	return b
}

func shiftAll(ts []model.Time, d model.Dur) []model.Time {
	if ts == nil {
		return nil
	}
	out := make([]model.Time, len(ts))
	for i, t := range ts {
		out[i] = t.Add(d)
	}
	return out
}

// loadsFor is the load list sched is given: loads itself, or for
// FixedOrder a feasible order of them (List's), as a decided order is.
func loadsFor(t *testing.T, sched Scheduler, s *assign.Schedule, st *schedule.Static, loads []graph.SubtaskID) []graph.SubtaskID {
	t.Helper()
	if _, ok := sched.(FixedOrder); !ok {
		return loads
	}
	r, err := List{}.ScheduleScratch(s, st, loads, schedule.Instance{}, new(Scratch))
	if err != nil {
		t.Fatal(err)
	}
	return append([]graph.SubtaskID(nil), r.PortOrder...)
}

// memoCase runs one decision through m and through sched on a fresh
// scratch, requires the two to agree field by field, and reports whether
// m replayed a stored decision.
func memoCase(t *testing.T, name string, m *Memo, sched Scheduler, s *assign.Schedule, st *schedule.Static, loads []graph.SubtaskID, b schedule.Instance, sc *Scratch) bool {
	t.Helper()
	want, werr := sched.ScheduleScratch(s, st, loads, b, new(Scratch))
	got, err := m.Schedule(sched, s, st, loads, b, sc)
	if (err == nil) != (werr == nil) {
		t.Fatalf("%s: err %v, fresh %v", name, err, werr)
	}
	if err != nil {
		return false
	}
	w, g := want.Timeline, got.Timeline
	if len(g.ExecStart) != len(w.ExecStart) || len(g.LoadStart) != len(w.LoadStart) ||
		len(g.LoadPort) != len(w.LoadPort) || len(g.ExecEnd) != len(w.ExecEnd) || len(g.LoadEnd) != len(w.LoadEnd) {
		t.Fatalf("%s: timeline lengths differ", name)
	}
	compareFull(t, name, 0, want, got)
	return got.Timeline == &m.tl
}

// TestMemoMatchesFresh is the memo's exactness bar: on random schedules
// on one to three ports, under OnDemand, List and FixedOrder, every
// memoized decision equals a fresh ScheduleScratch field by field — the
// stored miss, one relative key replayed at several ExecFloor shifts
// (each a hit), tile and port availabilities below LoadFloor at other
// absolute values and the availability of processors that run nothing
// (hits), availabilities between LoadFloor and ExecFloor, LoadFloors
// above ExecFloor, nil vectors and a smaller load list.
func TestMemoMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	ms := func(n int) model.Dur { return model.Dur(n) * model.Millisecond }
	sc := new(Scratch)
	for trial := 0; trial < 200; trial++ {
		s, p, loads := randSched(rng, 14, 1+rng.Intn(4))
		p.Ports = 1 + rng.Intn(3)
		st := mustStatic(t, s, p)
		for _, sched := range []Scheduler{OnDemand{}, List{}, FixedOrder{}} {
			name := fmt.Sprintf("%s trial %d", sched.Name(), trial)
			loads := loadsFor(t, sched, s, st, loads)
			var m Memo
			b := randomBounds(rng, s, p)
			// Some availabilities below LoadFloor, some between LoadFloor
			// and ExecFloor.
			for r := range b.TileFree {
				switch rng.Intn(3) {
				case 0:
					b.TileFree[r] = b.LoadFloor.Add(-ms(rng.Intn(20)))
				case 1:
					b.TileFree[r] = b.LoadFloor.Add(b.ExecFloor.Sub(b.LoadFloor) * model.Dur(rng.Intn(4)) / 4)
				}
			}
			for q := range b.PortFree {
				if rng.Intn(2) == 0 {
					b.PortFree[q] = b.LoadFloor.Add(-ms(rng.Intn(20)))
				}
			}
			if memoCase(t, name+" first", &m, sched, s, st, loads, b, sc) {
				t.Fatalf("%s: the first decision hit an empty table", name)
			}
			for k, d := range []model.Dur{ms(1 + rng.Intn(30)), ms(200), model.Dur(rng.Intn(7)), -b.ExecFloor.Sub(0)} {
				if !memoCase(t, fmt.Sprintf("%s shift %d", name, k), &m, sched, s, st, loads, shifted(b, d), sc) {
					t.Fatalf("%s: shift %v of a stored key missed", name, d)
				}
			}
			// Availabilities below LoadFloor at other absolute values, and
			// any availability of a processor that runs nothing, leave the
			// key as it is.
			c := shifted(b, ms(3))
			for r := range c.TileFree {
				if c.TileFree[r] < c.LoadFloor || r >= len(s.TileOrder) || len(s.TileOrder[r]) == 0 {
					c.TileFree[r] = c.LoadFloor.Add(-ms(rng.Intn(50)))
				}
			}
			for q := range c.PortFree {
				if c.PortFree[q] < c.LoadFloor {
					c.PortFree[q] = c.LoadFloor.Add(-ms(rng.Intn(50)))
				}
			}
			if !memoCase(t, name+" clamped", &m, sched, s, st, loads, c, sc) {
				t.Fatalf("%s: availabilities below LoadFloor changed the key", name)
			}
			// A different availability between LoadFloor and ExecFloor is
			// a different key, whose decision must be its own.
			if len(c.TileFree) > 0 && c.ExecFloor > c.LoadFloor {
				c.TileFree[rng.Intn(len(c.TileFree))] = c.LoadFloor.Add(c.ExecFloor.Sub(c.LoadFloor) / 2)
				memoCase(t, name+" between", &m, sched, s, st, loads, c, sc)
			}
			// A LoadFloor above ExecFloor: two such floors that differ
			// only there are two keys.
			late := shifted(b, 0)
			for _, d := range []model.Dur{ms(1), ms(5)} {
				late.LoadFloor = late.ExecFloor.Add(d)
				memoCase(t, name+" late load floor", &m, sched, s, st, loads, late, sc)
				if !memoCase(t, name+" late load floor shifted", &m, sched, s, st, loads, shifted(late, ms(2)), sc) {
					t.Fatalf("%s: shift of a stored late-load-floor key missed", name)
				}
			}
			// Nil vectors and a load set of another size.
			memoCase(t, name+" nil", &m, sched, s, st, loads, schedule.Instance{ExecFloor: b.ExecFloor, LoadFloor: b.LoadFloor}, sc)
			if len(loads) > 0 {
				memoCase(t, name+" fewer loads", &m, sched, s, st, loads[1:], b, sc)
			}
		}
	}
}

// TestMemoBound fills one table with more distinct keys than its bound,
// from several schedules: every decision still equals a fresh one, the
// table stops at memoEntries, and a stored key keeps hitting. Malformed
// instances fail exactly as the scheduler does.
func TestMemoBound(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	sc := new(Scratch)
	var m Memo
	type stored struct {
		s     *assign.Schedule
		st    *schedule.Static
		loads []graph.SubtaskID
		b     schedule.Instance
	}
	var first []stored
	for i := 0; len(m.ents) < memoEntries || i < 2*memoEntries; i++ {
		s, p, loads := randSched(rng, 10, 1+rng.Intn(4))
		p.Ports = 1 + rng.Intn(3)
		st := mustStatic(t, s, p)
		b := randomBounds(rng, s, p)
		memoCase(t, fmt.Sprintf("key %d", i), &m, List{}, s, st, loads, b, sc)
		if len(first) < 10 {
			first = append(first, stored{s, st, loads, b})
		}
	}
	if len(m.ents) != memoEntries {
		t.Fatalf("table holds %d entries, bound %d", len(m.ents), memoEntries)
	}
	for i, f := range first {
		if !memoCase(t, fmt.Sprintf("stored %d", i), &m, List{}, f.s, f.st, f.loads, shifted(f.b, model.Millisecond), sc) {
			t.Fatalf("stored key %d missed once the table was full", i)
		}
	}
	f := first[0]
	bad := f.b
	bad.TileFree = bad.TileFree[:len(bad.TileFree)-1]
	memoCase(t, "short TileFree", &m, List{}, f.s, f.st, f.loads, bad, sc)
	bad = f.b
	bad.PortFree = append(bad.PortFree, 0)
	memoCase(t, "long PortFree", &m, List{}, f.s, f.st, f.loads, bad, sc)
	// Far enough below zero that the evaluation clamps the end at zero,
	// where shift invariance ends.
	memoCase(t, "negative ExecFloor", &m, List{}, f.s, f.st, f.loads, shifted(f.b, -f.b.ExecFloor.Sub(0)-10*model.Second), sc)
}

// TestMemoKeysSchedulerAndStatic shares one table between the three
// schedulers and between two static parts of one schedule that differ
// only in load latency, all at the same floors: each is its own key, and
// each decision is its own.
func TestMemoKeysSchedulerAndStatic(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	sc := new(Scratch)
	for trial := 0; trial < 50; trial++ {
		s, p, loads := randSched(rng, 14, 1+rng.Intn(4))
		b := randomBounds(rng, s, p)
		slow := p
		slow.ReconfigLatency *= 3
		statics := []*schedule.Static{mustStatic(t, s, p), mustStatic(t, s, slow)}
		var m Memo
		for _, st := range statics {
			for _, sched := range []Scheduler{OnDemand{}, List{}, FixedOrder{}} {
				name := fmt.Sprintf("%s trial %d", sched.Name(), trial)
				loads := loadsFor(t, sched, s, st, loads)
				if memoCase(t, name, &m, sched, s, st, loads, b, sc) {
					t.Fatalf("%s: another scheduler's or static part's decision was replayed", name)
				}
				if !memoCase(t, name+" again", &m, sched, s, st, loads, shifted(b, model.Millisecond), sc) {
					t.Fatalf("%s: a stored key missed", name)
				}
			}
		}
	}
}

// TestMemoConfirmsStoredKey corrupts a stored entry's key, then its load
// list, behind an unchanged hash: the lookup must compare them and miss.
func TestMemoConfirmsStoredKey(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	s, p, loads := randSched(rng, 14, 3)
	for len(loads) == 0 {
		s, p, loads = randSched(rng, 14, 3)
	}
	st := mustStatic(t, s, p)
	b := randomBounds(rng, s, p)
	sc := new(Scratch)
	var m Memo
	memoCase(t, "store", &m, List{}, s, st, loads, b, sc)
	m.words[m.ents[0].words]++
	if memoCase(t, "stored key differs", &m, List{}, s, st, loads, b, sc) {
		t.Fatal("an entry whose stored key differs was replayed")
	}
	m.ids[m.ents[1].ids]++
	if memoCase(t, "stored loads differ", &m, List{}, s, st, loads, b, sc) {
		t.Fatal("an entry whose stored load list differs was replayed")
	}
	if !memoCase(t, "intact", &m, List{}, s, st, loads, b, sc) {
		t.Fatal("the intact entry missed")
	}
}
