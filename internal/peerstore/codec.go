// Package peerstore implements the cross-replica analysis tier: a
// tiered engine.Store (local LRU → peer fetch → compute fallback) plus
// the stable wire codec and HTTP endpoint replicas use to serve each
// other design-time artifacts. It exists so a re-sharded sweep value's
// analysis fills over one HTTP hop from the replica that already paid
// for it instead of recomputing cold — the paper's reuse-over-reload
// principle applied one layer above the simulator.
package peerstore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"drhwsched/internal/assign"
	"drhwsched/internal/core"
	"drhwsched/internal/graph"
	"drhwsched/internal/model"
	"drhwsched/internal/platform"
)

// WireVersion is the artifact envelope version. Bump it on any change
// to the wire structs below; a replica rejects versions it does not
// speak and falls back to computing, so mixed-version pools degrade to
// cold behavior instead of corrupting.
const WireVersion = 1

// envelope is the outer frame of a serialized artifact. Fingerprint
// binds the payload to the engine key it was stored under; Checksum
// covers the raw Artifact bytes so truncation or corruption in transit
// is detected before any of the payload is trusted.
type envelope struct {
	Version     int             `json:"version"`
	Fingerprint string          `json:"fingerprint"`
	Checksum    string          `json:"checksum"`
	Artifact    json.RawMessage `json:"artifact"`
}

// artifactWire is the serialized form of core.Analysis. Only canonical
// state crosses the wire — derived indexes (the critical-subtask
// bitmap) are rebuilt by the decoder via core's Rehydrate.
type artifactWire struct {
	Graph      graphWire    `json:"graph"`
	Sched      schedWire    `json:"sched"`
	Platform   platformWire `json:"platform"`
	CS         []int        `json:"cs"`
	BodyOrder  []int        `json:"body_order"`
	Iterations int          `json:"iterations"`
}

// graphWire carries the task graph in insertion order: subtask i of
// the slice gets SubtaskID i on reconstruction, and edges are replayed
// in stored order so successor/predecessor traversal order — which the
// schedulers iterate — is identical to the original graph's.
type graphWire struct {
	Name     string        `json:"name"`
	Subtasks []subtaskWire `json:"subtasks"`
	Edges    []edgeWire    `json:"edges"`
}

type subtaskWire struct {
	Name   string `json:"name"`
	ExecUS int64  `json:"exec_us"`
	LoadUS int64  `json:"load_us,omitempty"`
	Config string `json:"config"`
	OnISP  bool   `json:"on_isp,omitempty"`
}

type edgeWire struct {
	From  int `json:"from"`
	To    int `json:"to"`
	Bytes int `json:"bytes,omitempty"`
}

type schedWire struct {
	Tiles           int     `json:"tiles"`
	ISPs            int     `json:"isps"`
	Assignment      []int   `json:"assignment"`
	TileOrder       [][]int `json:"tile_order"`
	IdealStartUS    []int64 `json:"ideal_start_us"`
	IdealEndUS      []int64 `json:"ideal_end_us"`
	IdealMakespanUS int64   `json:"ideal_makespan_us"`
	WeightsUS       []int64 `json:"weights_us"`
}

type platformWire struct {
	Tiles             int     `json:"tiles"`
	ReconfigLatencyUS int64   `json:"reconfig_latency_us"`
	Ports             int     `json:"ports"`
	ISPs              int     `json:"isps"`
	LoadEnergy        float64 `json:"load_energy"`
	ActivePower       float64 `json:"active_power"`
	IdlePower         float64 `json:"idle_power"`
}

// Encode serializes a into the versioned, checksummed envelope, bound
// to the engine fingerprint key (raw bytes, as engine.Fingerprint
// returns them) it is stored under.
func Encode(key string, a *core.Analysis) ([]byte, error) {
	if a == nil || a.Sched == nil || a.Sched.G == nil {
		return nil, fmt.Errorf("peerstore: encode: analysis has no schedule graph")
	}
	s, g := a.Sched, a.Sched.G

	w := artifactWire{
		Platform: platformWire{
			Tiles:             a.P.Tiles,
			ReconfigLatencyUS: int64(a.P.ReconfigLatency),
			Ports:             a.P.Ports,
			ISPs:              a.P.ISPs,
			LoadEnergy:        a.P.LoadEnergy,
			ActivePower:       a.P.ActivePower,
			IdlePower:         a.P.IdlePower,
		},
		Iterations: a.Iterations,
	}
	w.Graph.Name = g.Name
	for _, st := range g.Subtasks() {
		w.Graph.Subtasks = append(w.Graph.Subtasks, subtaskWire{
			Name:   st.Name,
			ExecUS: int64(st.Exec),
			LoadUS: int64(st.Load),
			Config: string(st.Config),
			OnISP:  st.OnISP,
		})
	}
	for _, e := range g.Edges() {
		w.Graph.Edges = append(w.Graph.Edges, edgeWire{From: int(e.From), To: int(e.To), Bytes: e.Bytes})
	}
	w.Sched = schedWire{
		Tiles:           s.Tiles,
		ISPs:            s.ISPs,
		Assignment:      append([]int(nil), s.Assignment...),
		IdealMakespanUS: int64(s.IdealMakespan),
	}
	for _, row := range s.TileOrder {
		w.Sched.TileOrder = append(w.Sched.TileOrder, ids2ints(row))
	}
	w.Sched.IdealStartUS = times2ints(s.IdealStart)
	w.Sched.IdealEndUS = times2ints(s.IdealEnd)
	for _, d := range s.Weights {
		w.Sched.WeightsUS = append(w.Sched.WeightsUS, int64(d))
	}
	w.CS = ids2ints(a.CS)
	w.BodyOrder = ids2ints(a.BodyOrder)

	payload, err := json.Marshal(w)
	if err != nil {
		return nil, fmt.Errorf("peerstore: encode: %w", err)
	}
	sum := sha256.Sum256(payload)
	return json.Marshal(envelope{
		Version:     WireVersion,
		Fingerprint: hex.EncodeToString([]byte(key)),
		Checksum:    hex.EncodeToString(sum[:]),
		Artifact:    payload,
	})
}

// Decode parses an artifact envelope fetched for key (raw fingerprint
// bytes) and reconstructs the analysis. It rejects version mismatches,
// artifacts bound to a different fingerprint, checksum failures, and
// structurally invalid payloads — a rejected artifact is simply a peer
// miss, and the caller recomputes.
//
// Trust model: peers are members of the same pool, so the checksum
// defends against truncation and corruption, not forgery. The
// fingerprint is taken from the envelope (it cannot be recomputed here:
// the key also covers core.Options, which include a non-serializable
// scheduler), and the structural checks below guarantee a decoded
// artifact can never panic the simulator.
func Decode(key string, data []byte) (*core.Analysis, error) {
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("peerstore: decode: envelope: %w", err)
	}
	if env.Version != WireVersion {
		return nil, fmt.Errorf("peerstore: decode: wire version %d, want %d", env.Version, WireVersion)
	}
	if want := hex.EncodeToString([]byte(key)); env.Fingerprint != want {
		return nil, fmt.Errorf("peerstore: decode: artifact is for fingerprint %.16s…, want %.16s…", env.Fingerprint, want)
	}
	sum := sha256.Sum256(env.Artifact)
	if env.Checksum != hex.EncodeToString(sum[:]) {
		return nil, fmt.Errorf("peerstore: decode: payload checksum mismatch")
	}
	var w artifactWire
	if err := json.Unmarshal(env.Artifact, &w); err != nil {
		return nil, fmt.Errorf("peerstore: decode: artifact: %w", err)
	}

	n := len(w.Graph.Subtasks)
	g := graph.New(w.Graph.Name)
	for _, st := range w.Graph.Subtasks {
		// The same duration rules the workload parser enforces.
		if st.ExecUS <= 0 {
			return nil, fmt.Errorf("peerstore: decode: subtask %q: exec time %d µs is not positive", st.Name, st.ExecUS)
		}
		if st.LoadUS < 0 {
			return nil, fmt.Errorf("peerstore: decode: subtask %q: load time %d µs is negative", st.Name, st.LoadUS)
		}
		id := g.AddConfigured(st.Name, model.Dur(st.ExecUS), graph.ConfigID(st.Config))
		if st.LoadUS != 0 {
			g.SetLoad(id, model.Dur(st.LoadUS))
		}
		if st.OnISP {
			g.SetOnISP(id, true)
		}
	}
	for _, e := range w.Graph.Edges {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			return nil, fmt.Errorf("peerstore: decode: edge %d→%d out of range [0,%d)", e.From, e.To, n)
		}
		g.AddEdgeBytes(graph.SubtaskID(e.From), graph.SubtaskID(e.To), e.Bytes)
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("peerstore: decode: graph: %w", err)
	}

	sw := w.Sched
	if len(sw.Assignment) != n || len(sw.IdealStartUS) != n || len(sw.IdealEndUS) != n || len(sw.WeightsUS) != n {
		return nil, fmt.Errorf("peerstore: decode: schedule arrays sized %d/%d/%d/%d, want %d",
			len(sw.Assignment), len(sw.IdealStartUS), len(sw.IdealEndUS), len(sw.WeightsUS), n)
	}
	rows := sw.Tiles + sw.ISPs
	if sw.Tiles < 0 || sw.ISPs < 0 || len(sw.TileOrder) != rows {
		return nil, fmt.Errorf("peerstore: decode: %d tile-order rows for %d processors", len(sw.TileOrder), rows)
	}
	for _, proc := range sw.Assignment {
		if proc < 0 || proc >= rows {
			return nil, fmt.Errorf("peerstore: decode: assignment row %d out of range [0,%d)", proc, rows)
		}
	}
	sched := &assign.Schedule{
		G:             g,
		Tiles:         sw.Tiles,
		ISPs:          sw.ISPs,
		Assignment:    append([]int(nil), sw.Assignment...),
		IdealMakespan: model.Dur(sw.IdealMakespanUS),
	}
	for _, row := range sw.TileOrder {
		ids, err := ints2ids(row, n, "tile order")
		if err != nil {
			return nil, err
		}
		sched.TileOrder = append(sched.TileOrder, ids)
	}
	sched.IdealStart = ints2times(sw.IdealStartUS)
	sched.IdealEnd = ints2times(sw.IdealEndUS)
	for _, us := range sw.WeightsUS {
		sched.Weights = append(sched.Weights, model.Dur(us))
	}

	a := &core.Analysis{
		Sched:      sched,
		Iterations: w.Iterations,
		P: platform.Platform{
			Tiles:           w.Platform.Tiles,
			ReconfigLatency: model.Dur(w.Platform.ReconfigLatencyUS),
			Ports:           w.Platform.Ports,
			ISPs:            w.Platform.ISPs,
			LoadEnergy:      w.Platform.LoadEnergy,
			ActivePower:     w.Platform.ActivePower,
			IdlePower:       w.Platform.IdlePower,
		},
	}
	var err error
	if a.CS, err = ints2ids(w.CS, n, "critical set"); err != nil {
		return nil, err
	}
	if a.BodyOrder, err = ints2ids(w.BodyOrder, n, "body order"); err != nil {
		return nil, err
	}
	if err := a.Rehydrate(); err != nil {
		return nil, fmt.Errorf("peerstore: decode: %w", err)
	}
	return a, nil
}

func ids2ints(ids []graph.SubtaskID) []int {
	out := make([]int, 0, len(ids))
	for _, id := range ids {
		out = append(out, int(id))
	}
	return out
}

func ints2ids(vals []int, n int, what string) ([]graph.SubtaskID, error) {
	out := make([]graph.SubtaskID, 0, len(vals))
	for _, v := range vals {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("peerstore: decode: %s subtask %d out of range [0,%d)", what, v, n)
		}
		out = append(out, graph.SubtaskID(v))
	}
	return out, nil
}

func times2ints(ts []model.Time) []int64 {
	out := make([]int64, 0, len(ts))
	for _, t := range ts {
		out = append(out, int64(t))
	}
	return out
}

func ints2times(vals []int64) []model.Time {
	out := make([]model.Time, 0, len(vals))
	for _, v := range vals {
		out = append(out, model.Time(v))
	}
	return out
}
