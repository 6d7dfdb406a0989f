package reconfig

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"drhwsched/internal/assign"
	"drhwsched/internal/graph"
	"drhwsched/internal/model"
	"drhwsched/internal/platform"
)

// sched builds a 2-virtual-tile schedule with two independent subtasks.
func sched(t *testing.T, cfgs ...graph.ConfigID) *assign.Schedule {
	t.Helper()
	g := graph.New("t")
	for i, c := range cfgs {
		g.AddConfigured("s", model.MS(5+float64(i)), c)
	}
	s, err := assign.List(g, platform.Default(len(cfgs)), assign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// configs reads the state's residency vector by name.
func configs(st *State) []graph.ConfigID {
	out := make([]graph.ConfigID, st.Tiles())
	for t := range out {
		out[t] = st.Config(t)
	}
	return out
}

func TestStateBasics(t *testing.T) {
	st := NewState(3)
	if st.Tiles() != 3 {
		t.Fatal("tiles")
	}
	st.Set(1, "a", 100)
	if got := configs(st); !slices.Equal(got, []graph.ConfigID{"", "a", ""}) {
		t.Fatalf("configs = %q, want only tile 1 holding a", got)
	}
	st.Touch(1, 200)
	if st.LastUse[1] != 200 {
		t.Fatal("touch")
	}
	st.Touch(1, 50) // never rewinds
	if st.LastUse[1] != 200 {
		t.Fatal("touch rewound")
	}
}

func TestMapClaimsExactMatches(t *testing.T) {
	s := sched(t, "A", "B")
	st := NewState(4)
	st.Set(3, "A", 10) // A resident on physical tile 3
	st.Set(0, "B", 20)
	m, err := Map(s, st, MapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Virtual tile hosting the A-subtask must land on physical 3, the
	// B-subtask's on physical 0.
	res := Resident(s, st, m)
	if !res[0] || !res[1] {
		t.Fatalf("resident = %v, want both subtasks reusable", res)
	}
}

func TestMapPrefersEmptyTilesOverEviction(t *testing.T) {
	s := sched(t, "X")
	st := NewState(3)
	st.Set(0, "valuable", 100)
	m, err := Map(s, st, MapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m.PhysOf[0] == 0 {
		t.Fatal("evicted a configuration while empty tiles existed")
	}
}

func TestMapCriticalPriority(t *testing.T) {
	// Two subtasks share the same configuration; only one physical tile
	// holds it. The critical one must win the match.
	g := graph.New("t")
	a := g.AddConfigured("a", model.MS(5), "C")
	b := g.AddConfigured("b", model.MS(5), "C")
	s, err := assign.List(g, platform.Default(2), assign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := NewState(2)
	st.Set(1, "C", 10)
	m, err := Map(s, st, MapOptions{Critical: func(id graph.SubtaskID) bool { return id == b }})
	if err != nil {
		t.Fatal(err)
	}
	res := Resident(s, st, m)
	if !res[b] {
		t.Fatalf("critical subtask not matched: resident=%v physOf=%v", res, m.PhysOf)
	}
	_ = a
}

func TestMapDistinctPhysicalTiles(t *testing.T) {
	s := sched(t, "A", "B", "C")
	st := NewState(5)
	m, err := Map(s, st, MapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, p := range m.PhysOf {
		if p < 0 || p >= 5 || seen[p] {
			t.Fatalf("bad mapping %v", m.PhysOf)
		}
		seen[p] = true
	}
}

func TestMapFailsWhenScheduleWiderThanPlatform(t *testing.T) {
	s := sched(t, "A", "B", "C")
	if _, err := Map(s, NewState(2), MapOptions{}); err == nil {
		t.Fatal("want error")
	}
}

func TestResidentIntraTaskReuse(t *testing.T) {
	// Two same-configuration subtasks back to back on one tile: the
	// second needs no load even from a cold state.
	g := graph.New("t")
	a := g.AddConfigured("a", model.MS(5), "S")
	b := g.AddConfigured("b", model.MS(5), "S")
	g.AddEdge(a, b)
	s, err := assign.List(g, platform.Default(1), assign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := NewState(1)
	m, err := Map(s, st, MapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res := Resident(s, st, m)
	if res[a] || !res[b] {
		t.Fatalf("resident = %v, want only the second subtask", res)
	}
}

func TestCommitRecordsFinalConfigs(t *testing.T) {
	s := sched(t, "A", "B")
	st := NewState(2)
	m, err := Map(s, st, MapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res := Resident(s, st, m)
	Commit(s, st, m, res, func(id graph.SubtaskID) model.Time { return model.Time(100 + int64(id)) })
	got := configs(st)
	slices.Sort(got)
	if !slices.Equal(got, []graph.ConfigID{"A", "B"}) {
		t.Fatalf("configs after commit: %v", configs(st))
	}
}

func TestLRUVictim(t *testing.T) {
	st := NewState(3)
	st.Set(0, "a", 30)
	st.Set(1, "b", 10)
	st.Set(2, "c", 20)
	if got := (LRU{}).Victim(st, []int{0, 1, 2}, nil); got != 1 {
		t.Fatalf("LRU victim = %d, want 1", got)
	}
}

func TestFIFOVictim(t *testing.T) {
	st := NewState(3)
	st.Set(0, "a", 30)
	st.Set(1, "b", 10)
	st.Set(2, "c", 20)
	st.Touch(1, 500) // recent use does not save the oldest load
	if got := (FIFO{}).Victim(st, []int{0, 1, 2}, nil); got != 1 {
		t.Fatalf("FIFO victim = %d, want 1", got)
	}
}

func TestBeladyVictimEvictsFarthestUse(t *testing.T) {
	st := NewState(3)
	st.Set(0, "soon", 1)
	st.Set(1, "later", 1)
	st.Set(2, "never", 1)
	future := []graph.ConfigID{"soon", "x", "later"}
	if got := (Belady{}).Victim(st, []int{0, 1, 2}, future); got != 2 {
		t.Fatalf("Belady victim = %d, want the never-again tile", got)
	}
	if got := (Belady{}).Victim(st, []int{0, 1}, future); got != 1 {
		t.Fatalf("Belady victim = %d, want the farther tile", got)
	}
}

func TestRandomVictimInCandidates(t *testing.T) {
	st := NewState(4)
	r := Random{Rng: rand.New(rand.NewSource(1))}
	for i := 0; i < 20; i++ {
		got := r.Victim(st, []int{1, 3}, nil)
		if got != 1 && got != 3 {
			t.Fatalf("victim %d not a candidate", got)
		}
	}
	if got := (Random{}).Victim(st, []int{2}, nil); got != 2 {
		t.Fatal("nil-rng random should pick first")
	}
}

func TestPolicyNames(t *testing.T) {
	for _, p := range []Policy{LRU{}, FIFO{}, Belady{}, Random{}} {
		if p.Name() == "" {
			t.Fatal("empty policy name")
		}
	}
}

// Property: Map always yields a bijection onto distinct physical tiles,
// and Resident marks a first-on-tile subtask only when its configuration
// really sits on the mapped tile.
func TestMapResidentProperty(t *testing.T) {
	f := func(seed int64, tiles, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		nTiles := 1 + int(tiles%6)
		g := graph.Generate(rng, graph.GenSpec{
			Name: "p", Subtasks: 1 + int(n%12), MaxWidth: 3,
			MinExec: model.MS(1), MaxExec: model.MS(10), EdgeProb: 0.2,
			SharedCfg: 4,
		})
		s, err := assign.List(g, platform.Default(nTiles), assign.Options{})
		if err != nil {
			return false
		}
		st := NewState(nTiles)
		// Random pre-existing configurations.
		for tl := 0; tl < nTiles; tl++ {
			if rng.Float64() < 0.6 {
				st.Set(tl, graph.ConfigID(string(rune('a'+rng.Intn(4)))), model.Time(rng.Int63n(1000)))
			}
		}
		m, err := Map(s, st, MapOptions{})
		if err != nil {
			return false
		}
		seen := map[int]bool{}
		for _, p := range m.PhysOf {
			if p < 0 || p >= nTiles || seen[p] {
				return false
			}
			seen[p] = true
		}
		res := Resident(s, st, m)
		for v := 0; v < s.Tiles; v++ {
			if len(s.TileOrder[v]) == 0 {
				continue
			}
			first := s.TileOrder[v][0]
			if res[first] && st.Config(m.PhysOf[v]) != g.Subtask(first).Config {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
