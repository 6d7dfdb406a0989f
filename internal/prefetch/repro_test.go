package prefetch

import (
	"math/rand"
	"testing"

	"drhwsched/internal/schedule"
)

// Regression: on-demand port orders must respect the combined
// precedence (graph edges plus per-tile execution chains through
// resident subtasks). This seed once produced a readiness order whose
// load sequence put a load ahead of a loaded combined-ancestor,
// creating a constraint cycle.
func TestOnDemandOrderRespectsCombinedPrecedence(t *testing.T) {
	rng := rand.New(rand.NewSource(3949291582562784689))
	s, p, loads := randSched(rng, 14, 1+int(uint8(0xc)%5))
	r, err := (OnDemand{}).Schedule(s, p, loads, schedule.Instance{})
	if err != nil {
		t.Fatalf("schedule error: %v", err)
	}
	if r.Overhead < 0 {
		t.Fatalf("negative overhead %v", r.Overhead)
	}
	in, inst := engineInput(s, p, r.PortOrder, schedule.Instance{}, r.OnDemand)
	if err := schedule.Verify(in, inst, r.Timeline); err != nil {
		t.Fatalf("verify: %v", err)
	}
}
