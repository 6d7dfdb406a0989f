package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"io"

	"drhwsched/internal/assign"
	"drhwsched/internal/core"
	"drhwsched/internal/platform"
)

// Fingerprint derives the cache key of one design-time analysis: a
// content hash of everything core.Analyze reads. Two inputs with equal
// fingerprints produce interchangeable Analysis artifacts, so repeated
// task arrivals and parameter sweeps that revisit the same (schedule,
// platform, options) triple can share one stored analysis.
//
// The key covers, in a fixed canonical order:
//
//   - the full graph content: name, every subtask (name, execution and
//     load latencies, configuration identity, ISP flag) and every edge;
//   - the schedule's decisions: tile budget, ISP count, the
//     subtask-to-processor assignment and the per-processor order (the
//     ideal timing and weights are derived from these and the graph, so
//     hashing them again would only slow the key down);
//   - the platform fields, including the energy model so distinct
//     platforms never alias;
//   - the analysis options, with the scheduler identified by its
//     concrete type and exported fields. Schedulers must therefore be
//     stateless values (as OnDemand, List and BranchBound are): a
//     scheduler carrying pointer state would render as an address,
//     aliasing cache entries across mutations of that state.
//
// Run-time-only simulation knobs — the arrival process, the fabric
// admission mode (sim.Options.Multitask), the replacement policy — are
// deliberately outside the key: they never change what core.Analyze
// computes, so runs differing only in those knobs share entries.
func Fingerprint(s *assign.Schedule, p platform.Platform, opt core.Options) string {
	h := sha256.New()
	w := writer{h: h}

	g := s.G
	w.str(g.Name)
	w.int(int64(g.Len()))
	for _, st := range g.Subtasks() {
		w.str(st.Name)
		w.int(int64(st.Exec))
		w.int(int64(st.Load))
		w.str(string(st.Config))
		w.bool(st.OnISP)
	}
	w.int(int64(len(g.Edges())))
	for _, e := range g.Edges() {
		w.int(int64(e.From))
		w.int(int64(e.To))
	}

	w.int(int64(s.Tiles))
	w.int(int64(s.ISPs))
	for _, t := range s.Assignment {
		w.int(int64(t))
	}
	w.int(int64(len(s.TileOrder)))
	for _, row := range s.TileOrder {
		w.int(int64(len(row)))
		for _, id := range row {
			w.int(int64(id))
		}
	}

	w.int(int64(p.Tiles))
	w.int(int64(p.ReconfigLatency))
	w.int(int64(p.Ports))
	w.int(int64(p.ISPs))
	fmt.Fprintf(h, "|%g|%g|%g", p.LoadEnergy, p.ActivePower, p.IdlePower)

	fmt.Fprintf(h, "|%T%+v|%t", opt.Scheduler, opt.Scheduler, opt.AddAllDelayed)

	return string(h.Sum(nil))
}

// writer hashes primitive values with unambiguous framing (fixed-width
// integers, length-prefixed strings).
type writer struct {
	h   hash.Hash
	buf [8]byte
}

func (w writer) int(v int64) {
	binary.LittleEndian.PutUint64(w.buf[:], uint64(v))
	w.h.Write(w.buf[:])
}

func (w writer) str(s string) {
	w.int(int64(len(s)))
	io.WriteString(w.h, s)
}

func (w writer) bool(b bool) {
	if b {
		w.int(1)
	} else {
		w.int(0)
	}
}
