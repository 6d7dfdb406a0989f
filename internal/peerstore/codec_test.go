package peerstore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strings"
	"testing"

	"drhwsched/internal/assign"
	"drhwsched/internal/core"
	"drhwsched/internal/engine"
	"drhwsched/internal/graph"
	"drhwsched/internal/model"
	"drhwsched/internal/platform"
	"drhwsched/internal/tcm"
	"drhwsched/internal/workload"
)

// testInputs builds a deterministic schedule exercising every wire
// field: mixed configs (one shared), explicit load overrides and an ISP
// subtask.
func testInputs(t *testing.T, tiles int) (*assign.Schedule, platform.Platform) {
	t.Helper()
	g := graph.New("codec-pipe")
	s0 := g.AddConfigured("s0", model.MS(10), "cfgA")
	s1 := g.AddConfigured("s1", model.MS(12), "cfgB")
	s2 := g.AddConfigured("s2", model.MS(8), "cfgA")
	s3 := g.AddConfigured("sw", model.MS(6), "soft")
	g.SetLoad(s1, model.MS(7))
	g.SetOnISP(s3, true)
	g.AddEdge(s0, s1)
	g.AddEdge(s1, s2)
	g.AddEdge(s2, s3)

	p := platform.Default(tiles)
	p.ISPs = 1
	sched, err := assign.List(g, p, assign.Options{})
	if err != nil {
		t.Fatalf("assign.List: %v", err)
	}
	return sched, p
}

// testAnalysis analyzes the testInputs schedule and returns the engine
// fingerprint it is stored under.
func testAnalysis(t *testing.T, tiles int) (key string, a *core.Analysis) {
	t.Helper()
	sched, p := testInputs(t, tiles)
	a, err := core.Analyze(sched, p, core.Options{})
	if err != nil {
		t.Fatalf("core.Analyze: %v", err)
	}
	return engine.Fingerprint(sched, p, core.Options{}), a
}

func TestCodecRoundTrip(t *testing.T) {
	key, orig := testAnalysis(t, 3)
	data, err := Encode(key, orig)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	dec, err := Decode(key, data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}

	// The decoded artifact must fingerprint identically: the key covers
	// every semantic field of the graph, schedule and platform.
	if got := engine.Fingerprint(dec.Sched, dec.P, core.Options{}); got != key {
		t.Fatalf("decoded analysis fingerprints differently")
	}
	// And re-encoding must reproduce the wire bytes exactly.
	data2, err := Encode(key, dec)
	if err != nil {
		t.Fatalf("re-Encode: %v", err)
	}
	if string(data) != string(data2) {
		t.Fatalf("re-encoded artifact differs:\n%s\nvs\n%s", data, data2)
	}
	// Derived state must be rebuilt: IsCritical answers for every
	// subtask, matching the original.
	for i := 0; i < orig.Sched.G.Len(); i++ {
		id := graph.SubtaskID(i)
		if orig.IsCritical(id) != dec.IsCritical(id) {
			t.Fatalf("IsCritical(%d) diverges after round trip", i)
		}
	}
	if orig.CriticalFraction() != dec.CriticalFraction() {
		t.Fatalf("CriticalFraction diverges after round trip")
	}
}

// TestDecodedGraphsShareConfigKeys: a graph rebuilt by the peer-store
// codec and one parsed from a workload document carry the same
// configuration handles as the graph they were built from, so a decoded
// analysis reuses tiles configured by a locally built one.
func TestDecodedGraphsShareConfigKeys(t *testing.T) {
	key, orig := testAnalysis(t, 3)
	data, err := Encode(key, orig)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	dec, err := Decode(key, data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	g := orig.Sched.G
	doc, err := workload.ExportMix("keys", []*tcm.Task{tcm.NewTask("t", g)}, nil)
	if err != nil {
		t.Fatalf("ExportMix: %v", err)
	}
	run, err := workload.ParseRun(doc)
	if err != nil {
		t.Fatalf("ParseRun: %v", err)
	}
	for name, h := range map[string]*graph.Graph{"peerstore": dec.Sched.G, "workload": run.Mix[0].Task.Scenarios[0]} {
		if h == g || h.Len() != g.Len() {
			t.Fatalf("%s: decoded graph is the original or has %d subtasks, want a copy of %d", name, h.Len(), g.Len())
		}
		for i := 0; i < g.Len(); i++ {
			id := graph.SubtaskID(i)
			if h.ConfigKey(id) != g.ConfigKey(id) {
				t.Fatalf("%s: subtask %d handle reads %q, built graph %q",
					name, i, h.ConfigKey(id).Value(), g.ConfigKey(id).Value())
			}
		}
	}
}

// TestCodecGolden pins the wire bytes of a fixed artifact: any codec
// change that alters the encoding of existing fields must bump
// WireVersion and update this golden deliberately.
func TestCodecGolden(t *testing.T) {
	key, a := testAnalysis(t, 2)
	data, err := Encode(key, a)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if string(data) != codecGolden {
		t.Fatalf("encoded artifact diverges from pinned golden:\ngot:  %s\nwant: %s", data, codecGolden)
	}
}

// reframe wraps a (possibly doctored) payload in a well-formed
// envelope with a correct checksum, so structural validation — not the
// integrity check — is what a test exercises.
func reframe(key string, payload []byte) ([]byte, error) {
	sum := sha256.Sum256(payload)
	return json.Marshal(envelope{
		Version:     WireVersion,
		Fingerprint: hex.EncodeToString([]byte(key)),
		Checksum:    hex.EncodeToString(sum[:]),
		Artifact:    payload,
	})
}

func TestDecodeRejectsCorruption(t *testing.T) {
	key, a := testAnalysis(t, 3)
	data, err := Encode(key, a)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}

	t.Run("truncated", func(t *testing.T) {
		if _, err := Decode(key, data[:len(data)/2]); err == nil {
			t.Fatalf("Decode accepted a truncated envelope")
		}
	})
	t.Run("payload-corrupted", func(t *testing.T) {
		var env envelope
		if err := json.Unmarshal(data, &env); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		// Flip a value inside the payload; the checksum must catch it.
		mangled := strings.Replace(string(env.Artifact), `"iterations":`, `"iterations":9`, 1)
		env.Artifact = json.RawMessage(mangled)
		bad, _ := json.Marshal(env)
		if _, err := Decode(key, bad); err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("Decode did not reject corrupted payload: %v", err)
		}
	})
	t.Run("wrong-key", func(t *testing.T) {
		other := strings.Repeat("\x42", 32)
		if _, err := Decode(other, data); err == nil || !strings.Contains(err.Error(), "fingerprint") {
			t.Fatalf("Decode accepted an artifact bound to another fingerprint: %v", err)
		}
	})
	t.Run("wrong-version", func(t *testing.T) {
		var env envelope
		if err := json.Unmarshal(data, &env); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		env.Version = WireVersion + 1
		bad, _ := json.Marshal(env)
		if _, err := Decode(key, bad); err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("Decode accepted a future wire version: %v", err)
		}
	})
	t.Run("version-1", func(t *testing.T) {
		// Version 1 carried an edge payload; a replica that still
		// speaks it falls back to computing.
		var env envelope
		if err := json.Unmarshal(data, &env); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		env.Version = 1
		old, _ := json.Marshal(env)
		if _, err := Decode(key, old); err == nil || !strings.Contains(err.Error(), "wire version 1, want 2") {
			t.Fatalf("Decode accepted a version-1 envelope: %v", err)
		}
	})
	t.Run("structural", func(t *testing.T) {
		var env envelope
		if err := json.Unmarshal(data, &env); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		for _, c := range []struct {
			name   string
			mutate func(*artifactWire)
			want   string
		}{
			{"critical-set", func(w *artifactWire) { w.CS = []int{99} }, "out of range"},
			{"exec-zero", func(w *artifactWire) { w.Graph.Subtasks[0].ExecUS = 0 }, "exec time"},
			{"exec-negative", func(w *artifactWire) { w.Graph.Subtasks[1].ExecUS = -5 }, "exec time"},
			{"load-negative", func(w *artifactWire) { w.Graph.Subtasks[0].LoadUS = -1 }, "load time"},
		} {
			t.Run(c.name, func(t *testing.T) {
				var w artifactWire
				if err := json.Unmarshal(env.Artifact, &w); err != nil {
					t.Fatalf("unmarshal artifact: %v", err)
				}
				c.mutate(&w)
				payload, _ := json.Marshal(w)
				reframed, err := reframe(key, payload)
				if err != nil {
					t.Fatalf("reframe: %v", err)
				}
				if _, err := Decode(key, reframed); err == nil || !strings.Contains(err.Error(), c.want) {
					t.Fatalf("Decode accepted the artifact or named the wrong fault (want %q): %v", c.want, err)
				}
			})
		}
	})
}
