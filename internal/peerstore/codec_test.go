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
)

// testInputs builds a deterministic schedule exercising every wire
// field: mixed configs (one shared), explicit load overrides, an ISP
// subtask, and a payload-carrying edge.
func testInputs(t *testing.T, tiles int) (*assign.Schedule, platform.Platform) {
	t.Helper()
	g := graph.New("codec-pipe")
	s0 := g.AddConfigured("s0", model.MS(10), "cfgA")
	s1 := g.AddConfigured("s1", model.MS(12), "cfgB")
	s2 := g.AddConfigured("s2", model.MS(8), "cfgA")
	s3 := g.AddConfigured("sw", model.MS(6), "soft")
	g.SetLoad(s1, model.MS(7))
	g.SetOnISP(s3, true)
	g.AddEdgeBytes(s0, s1, 512)
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
