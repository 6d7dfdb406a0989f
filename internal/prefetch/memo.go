package prefetch

import (
	"slices"

	"drhwsched/internal/assign"
	"drhwsched/internal/graph"
	"drhwsched/internal/model"
	"drhwsched/internal/schedule"
)

// memoEntries bounds a Memo: it keeps the first memoEntries decisions it
// stores, and computes every later miss without storing it. A simulated
// run's keys recur from its first iterations on, and the no-prefetch,
// design-time-prefetch and run-time approaches need at most a few dozen
// per run; a larger table
// costs the host more memory than it saves time. It is a power of two,
// so the index, twice as large, is addressed by a mask.
const memoEntries = 64

// Memo is a bounded table of run-time prefetch decisions: the host-side
// counterpart of the paper's hybrid split, in which a decision computed
// once is only looked up afterwards. Memo.Schedule returns exactly what
// the scheduler's ScheduleScratch would, timeline and all; on a hit it
// replays a stored decision instead of running the scheduler.
//
// The key is the scheduler, the static part st, the load list as given,
// and the instance's floors relative to its ExecFloor, with every tile
// and port availability clamped at c = min(LoadFloor, ExecFloor):
//
//   - LoadFloor − ExecFloor;
//   - for each processor that runs something, max(TileFree[r], c) −
//     ExecFloor;
//   - for each port, max(PortFree[p], c) − ExecFloor.
//
// It is exact for OnDemand, List and FixedOrder. Evaluation is integer
// max-plus, so it is shift-invariant: every start and end moves with
// ExecFloor. No node starts before c, so the clamp changes no floor
// Bind sets: the first execution on a processor waits for
// max(ExecFloor, TileFree[r]), its load for max(LoadFloor, TileFree[r]),
// a port for max(LoadFloor, PortFree[p]), and c is at most each of
// ExecFloor and LoadFloor. A processor that runs nothing sets no floor.
// The ideal-start order reads only the stored schedule, List's cut-off
// is relative to ExecFloor, and the ideal reference is a function of the
// same relative floors. So a stored decision, kept relative to its
// ExecFloor, is the decision of every instance with the same key, once
// shifted by that instance's ExecFloor. An instance with a negative
// ExecFloor (where a timeline's end is clamped at zero) or with floor
// vectors of the wrong length is passed to the scheduler unmemoized.
//
// An entry keeps the whole relative timeline, not only the port order,
// and a hit rebuilds each end as its start plus the static part's
// execution time or load latency, as Reorder does. Storing the order
// alone and evaluating it once per hit (one Bind and one Reorder) was
// measured and kept about half the gain: on perfbench paper-grid at
// seed 1 (5 alternating 10 s rounds, 2-vCPU host), instances_per_s of
// the run-time line read 2.50e5 without a table, 4.37e5 with this
// design, and 3.49e5 storing orders (3.54e5 with 256 of them), while
// peak_mem_mb read 8.69, 9.04 and 8.90 MB.
//
// Entries live back to back in a few flat slices that grow as append
// grows them, found through an open-addressing index by a hash of the
// key and confirmed by comparing the stored key, so no entry allocates
// on its own and a warm table replays without allocating.
//
// A Memo holds its static parts alive, so it must not outlive the run
// that prepared them: keep one per run-time scratch, never in a pool
// shared across runs. Like a Scratch, it must not be shared between
// goroutines. The zero value is ready to use.
type Memo struct {
	index []int32 // 2·memoEntries slots: entry index + 1, or 0 when free
	ents  []memoEntry
	// words holds each entry's key, then its relative timeline; ids its
	// load list, then its port order.
	words []model.Dur
	ids   []graph.SubtaskID

	key   []model.Dur // the current lookup's key
	times []model.Time
	tl    schedule.Timeline
	res   Result
}

// memoEntry is one stored decision. Its variable-length parts start at
// words and ids; times are relative to the instance's ExecFloor.
type memoEntry struct {
	hash  uint64
	sched Scheduler
	st    *schedule.Static

	words, ids           int32 // offsets into Memo.words and Memo.ids
	nkey, nloads, norder int32
	n, ports             int32 // the timeline's subtasks and ports
	onDemand             bool

	start, end                model.Dur
	makespan, ideal, overhead model.Dur
}

// Schedule returns sched.ScheduleScratch(s, st, loads, inst, sc),
// replaying a stored decision when one matches the key (see Memo) and
// storing the scheduler's decision otherwise. sched must be a
// comparable value, and its decision a function of the key alone, as
// OnDemand's, List's and FixedOrder's are.
// st must be s's static part.
//
// The Result and its Timeline are owned by m on a hit and by sc on a
// miss, until the next call on either; on a hit, PortOrder aliases the
// table and is read-only.
func (m *Memo) Schedule(sched Scheduler, s *assign.Schedule, st *schedule.Static, loads []graph.SubtaskID, inst schedule.Instance, sc *Scratch) (*Result, error) {
	if !m.keyOf(s, st, inst) {
		return sched.ScheduleScratch(s, st, loads, inst, sc)
	}
	h := m.hash(loads)
	if m.index == nil {
		m.index = make([]int32, 2*memoEntries)
	}
	mask := len(m.index) - 1
	slot := int(h) & mask
	for ; m.index[slot] != 0; slot = (slot + 1) & mask {
		e := &m.ents[m.index[slot]-1]
		if e.hash == h && e.st == st && e.sched == sched && m.matches(e, loads) {
			return m.replay(e, inst.ExecFloor), nil
		}
	}
	r, err := sched.ScheduleScratch(s, st, loads, inst, sc)
	if err != nil {
		return nil, err
	}
	if len(m.ents) < memoEntries {
		m.store(slot, h, sched, st, loads, r, inst.ExecFloor)
	}
	return r, nil
}

// keyOf builds inst's relative, clamped floors into m.key. It reports
// false when the instance must not be memoized: a negative ExecFloor,
// or a floor vector the scheduler would reject.
func (m *Memo) keyOf(s *assign.Schedule, st *schedule.Static, inst schedule.Instance) bool {
	ef := inst.ExecFloor
	if ef < 0 ||
		(inst.TileFree != nil && len(inst.TileFree) != st.Processors()) ||
		(inst.PortFree != nil && len(inst.PortFree) != st.Ports()) {
		return false
	}
	c := model.MinT(inst.LoadFloor, ef)
	key := append(m.key[:0], inst.LoadFloor.Sub(ef))
	for r, order := range s.TileOrder {
		if len(order) == 0 {
			continue
		}
		var free model.Time // nil TileFree: everything free at zero
		if inst.TileFree != nil {
			free = inst.TileFree[r]
		}
		key = append(key, model.MaxT(free, c).Sub(ef))
	}
	for p := 0; p < st.Ports(); p++ {
		free := c // nil PortFree: every port free at LoadFloor
		if inst.PortFree != nil {
			free = inst.PortFree[p]
		}
		key = append(key, model.MaxT(free, c).Sub(ef))
	}
	m.key = key
	return true
}

// hash mixes the key and the load list FNV-1a style, word by word, and
// finishes with MurmurHash3's avalanche so the index's low bits depend
// on every input bit (floors are multiples of large powers of two).
func (m *Memo) hash(loads []graph.SubtaskID) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, v := range m.key {
		h = (h ^ uint64(v)) * prime
	}
	for _, id := range loads {
		h = (h ^ uint64(id)) * prime
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// matches compares e's stored key and load list with the current ones.
func (m *Memo) matches(e *memoEntry, loads []graph.SubtaskID) bool {
	w, ids := int(e.words), int(e.ids)
	return slices.Equal(m.words[w:w+int(e.nkey)], m.key) &&
		slices.Equal(m.ids[ids:ids+int(e.nloads)], loads)
}

// store appends r, the decision for the current key at ExecFloor ef, as
// a new entry indexed at slot. After the key, an entry's words are its
// relative ExecStart, LoadStart and LoadPort per subtask, then its
// relative PortFreeAfter per port. Every end is its start plus the
// static part's execution time or load latency, exactly as the
// evaluator sets it, so no end is stored.
func (m *Memo) store(slot int, h uint64, sched Scheduler, st *schedule.Static, loads []graph.SubtaskID, r *Result, ef model.Time) {
	tl := r.Timeline
	n, ports := len(tl.ExecStart), len(tl.PortFreeAfter)
	e := memoEntry{
		hash: h, sched: sched, st: st,
		words: int32(len(m.words)), ids: int32(len(m.ids)),
		nkey: int32(len(m.key)), nloads: int32(len(loads)), norder: int32(len(r.PortOrder)),
		n: int32(n), ports: int32(ports),
		onDemand: r.OnDemand,
		start:    tl.Start.Sub(ef), end: tl.End.Sub(ef),
		makespan: r.Makespan, ideal: r.Ideal, overhead: r.Overhead,
	}
	m.ids = append(append(m.ids, loads...), r.PortOrder...)

	m.words = append(m.words, m.key...)
	m.words = appendRel(m.words, tl.ExecStart, ef)
	m.words = appendRel(m.words, tl.LoadStart, ef)
	for _, p := range tl.LoadPort {
		m.words = append(m.words, model.Dur(p))
	}
	m.words = appendRel(m.words, tl.PortFreeAfter, ef)

	m.ents = append(m.ents, e)
	m.index[slot] = int32(len(m.ents))
}

// replay rebuilds e's decision at ExecFloor ef into m's timeline.
func (m *Memo) replay(e *memoEntry, ef model.Time) *Result {
	n, ports := int(e.n), int(e.ports)
	if need := 4*n + ports; cap(m.times) < need {
		m.times = make([]model.Time, need)
	}
	if cap(m.tl.LoadPort) < n {
		m.tl.LoadPort = make([]int, n)
	}
	times := m.times
	tl := &m.tl
	tl.ExecStart, tl.ExecEnd = times[:n:n], times[n:2*n:2*n]
	tl.LoadStart, tl.LoadEnd = times[2*n:3*n:3*n], times[3*n:4*n:4*n]
	tl.PortFreeAfter = times[4*n : 4*n+ports : 4*n+ports]
	tl.LoadPort = tl.LoadPort[:n]

	w := m.words[int(e.words)+int(e.nkey):]
	execStart, loadStart, loadPort := w[:n], w[n:2*n], w[2*n:3*n]
	for i := range n {
		id := graph.SubtaskID(i)
		tl.ExecStart[i] = ef.Add(execStart[i])
		tl.ExecEnd[i] = tl.ExecStart[i].Add(e.st.Exec(id))
		tl.LoadPort[i] = int(loadPort[i])
		if loadPort[i] < 0 {
			tl.LoadStart[i], tl.LoadEnd[i] = schedule.NoEvent, schedule.NoEvent
		} else {
			tl.LoadStart[i] = ef.Add(loadStart[i])
			tl.LoadEnd[i] = tl.LoadStart[i].Add(e.st.Latency(id))
		}
	}
	for p, d := range w[3*n : 3*n+ports] {
		tl.PortFreeAfter[p] = ef.Add(d)
	}
	tl.Start, tl.End = ef.Add(e.start), ef.Add(e.end)

	order := int(e.ids + e.nloads)
	norder := int(e.norder)
	m.res = Result{
		PortOrder: m.ids[order : order+norder : order+norder],
		OnDemand:  e.onDemand,
		Timeline:  tl,
		Makespan:  e.makespan,
		Ideal:     e.ideal,
		Overhead:  e.overhead,
	}
	return &m.res
}

// appendRel appends each of ts relative to ef.
func appendRel(dst []model.Dur, ts []model.Time, ef model.Time) []model.Dur {
	for _, t := range ts {
		dst = append(dst, t.Sub(ef))
	}
	return dst
}
