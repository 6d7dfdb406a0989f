// Package graph models the subtask graphs that the TCM environment and
// the prefetch schedulers operate on.
//
// A task is a directed acyclic graph of subtasks. Each subtask carries an
// execution time (its latency on a DRHW tile once its configuration is
// resident) and a configuration identity used by the reuse module: two
// subtasks with the same ConfigID share a bitstream, so a tile configured
// for one can execute the other without reconfiguration.
package graph

import (
	"errors"
	"fmt"
	"sync/atomic"
	"unique"

	"drhwsched/internal/model"
)

// SubtaskID indexes a subtask inside one Graph. IDs are dense and start
// at zero in insertion order.
type SubtaskID int

// ConfigID names a reconfigurable-hardware configuration (bitstream).
// Configurations are the unit of reuse: a tile holding configuration c
// can execute any subtask whose Config is c without being reconfigured.
type ConfigID string

// Subtask is one node of a task graph.
type Subtask struct {
	ID     SubtaskID
	Name   string
	Exec   model.Dur // execution latency on a tile (or ISP)
	Load   model.Dur // reconfiguration latency; 0 means "platform default"
	Config ConfigID  // bitstream identity; never empty after AddSubtask
	// OnISP marks a subtask mapped to an embedded instruction-set
	// processor: it needs no reconfiguration and occupies an ISP
	// instead of a tile.
	OnISP bool
}

// Edge is a precedence dependency. Communication cost is folded into
// the subtasks' execution times.
type Edge struct {
	From, To SubtaskID
}

// Graph is a mutable task graph. The zero value is unusable; create one
// with New.
type Graph struct {
	Name     string
	subtasks []Subtask
	// keys holds each subtask's interned configuration, so per-instance
	// reuse checks compare handles instead of names. It is built by the
	// first ConfigKey call, so a graph that is only analyzed (a cold
	// drhwd analyze request) never interns, and published atomically
	// because built graphs are read by many goroutines at once.
	keys  atomic.Pointer[[]unique.Handle[ConfigID]]
	succ  [][]SubtaskID
	pred  [][]SubtaskID
	edges []Edge
}

// New returns an empty task graph with the given name.
func New(name string) *Graph {
	return &Graph{Name: name}
}

// AddSubtask appends a subtask with a fresh configuration unique to
// this subtask, and returns its ID. Use AddConfigured when several
// subtasks (e.g. the same slot across scenarios of one task) share a
// bitstream and should reuse each other's tile state.
func (g *Graph) AddSubtask(name string, exec model.Dur) SubtaskID {
	id := SubtaskID(len(g.subtasks))
	return g.AddConfigured(name, exec, ConfigID(fmt.Sprintf("%s/%s#%d", g.Name, name, id)))
}

// AddConfigured appends a subtask with an explicit configuration
// identity. Use it when several graphs (e.g. scenarios of one task)
// share bitstreams.
func (g *Graph) AddConfigured(name string, exec model.Dur, cfg ConfigID) SubtaskID {
	id := SubtaskID(len(g.subtasks))
	if cfg == "" {
		cfg = ConfigID(fmt.Sprintf("%s/#%d", g.Name, id))
	}
	g.subtasks = append(g.subtasks, Subtask{ID: id, Name: name, Exec: exec, Config: cfg})
	if g.keys.Load() != nil {
		g.keys.Store(nil) // re-interned, with the new subtask, on next use
	}
	g.succ = append(g.succ, nil)
	g.pred = append(g.pred, nil)
	return id
}

// SetLoad overrides the reconfiguration latency of one subtask.
// A zero value falls back to the platform default.
func (g *Graph) SetLoad(id SubtaskID, load model.Dur) { g.subtasks[id].Load = load }

// SetOnISP marks a subtask as software: it executes on an embedded ISP
// and never reconfigures a tile.
func (g *Graph) SetOnISP(id SubtaskID, on bool) { g.subtasks[id].OnISP = on }

// AddEdge records a precedence dependency from one subtask to another.
func (g *Graph) AddEdge(from, to SubtaskID) {
	g.edges = append(g.edges, Edge{From: from, To: to})
	g.succ[from] = append(g.succ[from], to)
	g.pred[to] = append(g.pred[to], from)
}

// Chain links the given subtasks into a linear pipeline, in order.
func (g *Graph) Chain(ids ...SubtaskID) {
	for i := 1; i < len(ids); i++ {
		g.AddEdge(ids[i-1], ids[i])
	}
}

// Len reports the number of subtasks.
func (g *Graph) Len() int { return len(g.subtasks) }

// Subtask returns the subtask with the given ID.
func (g *Graph) Subtask(id SubtaskID) Subtask { return g.subtasks[id] }

// ConfigKey returns the interned handle of a subtask's configuration.
// Two subtasks hold equal handles exactly when their ConfigIDs are
// equal, in this graph or any other, and a handle is never the zero
// value.
func (g *Graph) ConfigKey(id SubtaskID) unique.Handle[ConfigID] { return g.ConfigKeys()[id] }

// ConfigKeys returns every subtask's ConfigKey, indexed by ID, for
// loops that read many. Shared slice; read-only.
func (g *Graph) ConfigKeys() []unique.Handle[ConfigID] {
	if keys := g.keys.Load(); keys != nil {
		return *keys
	}
	return g.internConfigs()
}

// internConfigs interns every subtask's configuration and publishes
// the handles. Goroutines that race here build equal vectors, so
// whichever store lands last is as good as the first.
func (g *Graph) internConfigs() []unique.Handle[ConfigID] {
	keys := make([]unique.Handle[ConfigID], len(g.subtasks))
	for i, st := range g.subtasks {
		keys[i] = unique.Make(st.Config)
	}
	g.keys.Store(&keys)
	return keys
}

// Subtasks returns all subtasks in ID order. The slice is shared; do not
// modify it.
func (g *Graph) Subtasks() []Subtask { return g.subtasks }

// Succs returns the direct successors of id. Shared slice; read-only.
func (g *Graph) Succs(id SubtaskID) []SubtaskID { return g.succ[id] }

// Preds returns the direct predecessors of id. Shared slice; read-only.
func (g *Graph) Preds(id SubtaskID) []SubtaskID { return g.pred[id] }

// Edges returns every dependency. Shared slice; read-only.
func (g *Graph) Edges() []Edge { return g.edges }

// TotalExec is the sum of all subtask execution times (the serial lower
// bound on one tile, ignoring loads).
func (g *Graph) TotalExec() model.Dur {
	var t model.Dur
	for _, s := range g.subtasks {
		t += s.Exec
	}
	return t
}

// ErrCyclic reports that a graph contains a dependency cycle.
var ErrCyclic = errors.New("graph: dependency cycle")

// TopoOrder returns the subtasks in a deterministic topological order
// (Kahn's algorithm, smallest ready ID first). It fails with ErrCyclic if
// the graph has a cycle.
func (g *Graph) TopoOrder() ([]SubtaskID, error) {
	n := len(g.subtasks)
	indeg := make([]int, n)
	for i := range g.pred {
		indeg[i] = len(g.pred[i])
	}
	// A simple ordered ready set keeps the output deterministic.
	var ready minIDHeap
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready.push(SubtaskID(i))
		}
	}
	order := make([]SubtaskID, 0, n)
	for ready.len() > 0 {
		id := ready.pop()
		order = append(order, id)
		for _, s := range g.succ[id] {
			indeg[s]--
			if indeg[s] == 0 {
				ready.push(s)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("%w in %q", ErrCyclic, g.Name)
	}
	return order, nil
}

// Validate checks structural invariants: IDs in range, no self-loops, no
// duplicate edges, and acyclicity.
func (g *Graph) Validate() error {
	n := SubtaskID(len(g.subtasks))
	seen := make(map[[2]SubtaskID]bool, len(g.edges))
	for _, e := range g.edges {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			return fmt.Errorf("graph %q: edge %d->%d out of range", g.Name, e.From, e.To)
		}
		if e.From == e.To {
			return fmt.Errorf("graph %q: self-loop on %d", g.Name, e.From)
		}
		k := [2]SubtaskID{e.From, e.To}
		if seen[k] {
			return fmt.Errorf("graph %q: duplicate edge %d->%d", g.Name, e.From, e.To)
		}
		seen[k] = true
	}
	_, err := g.TopoOrder()
	return err
}

// Weights computes the paper's subtask criticality weights: for each
// subtask, the longest path (in execution time) from the beginning of its
// own execution to the end of the whole graph. Subtasks on the critical
// path receive the largest weights; the paper uses them to pick which
// delayed subtask joins the Critical Subtask set, and as the
// initialization-phase load order.
func (g *Graph) Weights() ([]model.Dur, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	w := make([]model.Dur, len(g.subtasks))
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		var best model.Dur
		for _, s := range g.succ[id] {
			if w[s] > best {
				best = w[s]
			}
		}
		w[id] = g.subtasks[id].Exec + best
	}
	return w, nil
}

// CriticalPath reports the length of the longest execution-time path in
// the graph: the ideal makespan on an unbounded number of tiles with free
// communication.
func (g *Graph) CriticalPath() (model.Dur, error) {
	w, err := g.Weights()
	if err != nil {
		return 0, err
	}
	var best model.Dur
	for _, d := range w {
		if d > best {
			best = d
		}
	}
	return best, nil
}

// minIDHeap is a tiny binary min-heap of SubtaskIDs, used to keep
// TopoOrder deterministic without pulling in container/heap boilerplate.
type minIDHeap struct{ a []SubtaskID }

func (h *minIDHeap) len() int { return len(h.a) }

func (h *minIDHeap) push(v SubtaskID) {
	h.a = append(h.a, v)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.a[p] <= h.a[i] {
			break
		}
		h.a[p], h.a[i] = h.a[i], h.a[p]
		i = p
	}
}

func (h *minIDHeap) pop() SubtaskID {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && h.a[l] < h.a[small] {
			small = l
		}
		if r < last && h.a[r] < h.a[small] {
			small = r
		}
		if small == i {
			break
		}
		h.a[i], h.a[small] = h.a[small], h.a[i]
		i = small
	}
	return top
}
