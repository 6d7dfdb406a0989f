// Fuzz coverage for the peer artifact codec. Artifact bytes come from
// other replicas, so Decode must reject any malformed payload with an
// error — never a panic — and any artifact it accepts must be safe to
// replay through the run-time phase.
//
// Each fuzzed payload is re-wrapped in a valid envelope (version,
// fingerprint, checksum) so it reaches the payload decoder instead of
// stopping at the checksum. The seed corpus under
// testdata/fuzz/FuzzDecode/ pins a valid artifact and the malformed
// shapes Decode must reject; `go test -fuzz=FuzzDecode
// ./internal/peerstore` explores from there.
package peerstore

import (
	"testing"

	"drhwsched/internal/core"
	"drhwsched/internal/graph"
)

func FuzzDecode(f *testing.F) {
	const key = "fuzz-fingerprint" // any key: the envelope only binds it
	f.Fuzz(func(t *testing.T, payload []byte) {
		framed, err := reframe(key, payload)
		if err != nil {
			return // not a JSON value; the envelope cannot even carry it
		}
		dec, err := Decode(key, framed)
		if err != nil {
			return // rejected cleanly — all the contract asks of bad input
		}
		var sc core.ExecScratch
		for _, resident := range []func(graph.SubtaskID) bool{
			nil,
			func(graph.SubtaskID) bool { return true },
		} {
			if _, err := dec.ExecuteScratch(core.RunBounds{}, resident, &sc); err != nil {
				return
			}
		}
	})
}
