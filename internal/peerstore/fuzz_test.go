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
	"drhwsched/internal/prefetch"
	"drhwsched/internal/schedule"
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
		st, err := dec.Sched.Static(dec.P)
		if err != nil {
			return // the stored schedule does not validate on its platform
		}
		var plan core.InstancePlan
		var sc prefetch.Scratch
		all := make([]bool, dec.Sched.G.Len())
		for i := range all {
			all[i] = true
		}
		for _, resident := range [][]bool{nil, all} {
			dec.PlanInto(&plan, resident)
			ph := prefetch.Phased{Init: len(plan.InitLoads)}
			if _, err := ph.ScheduleScratch(dec.Sched, st, plan.Loads(), schedule.Instance{}, &sc); err != nil {
				return
			}
		}
	})
}
