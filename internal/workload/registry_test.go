package workload

import (
	"strings"
	"testing"

	"drhwsched/internal/sim"
)

// TestRegistriesMatchParsers pins the satellite guarantee: every name a
// registry advertises is accepted by its parser, and every parser error
// message advertises the registry — so a policy, approach, arrival
// process or multitask mode can never be parseable but undocumented (or
// documented but unparseable).
func TestRegistriesMatchParsers(t *testing.T) {
	for _, name := range Approaches() {
		if _, err := ParseApproach(name); err != nil {
			t.Errorf("registry approach %q rejected by ParseApproach: %v", name, err)
		}
	}
	if _, err := ParseApproach("warp"); err == nil || !strings.Contains(err.Error(), Usage(Approaches())) {
		t.Errorf("ParseApproach error does not advertise the registry: %v", err)
	}

	for _, name := range Policies() {
		if _, err := ParsePolicy(name); err != nil {
			t.Errorf("registry policy %q rejected by ParsePolicy: %v", name, err)
		}
	}
	if _, err := ParsePolicy("psychic"); err == nil || !strings.Contains(err.Error(), Usage(Policies())) {
		t.Errorf("ParsePolicy error does not advertise the registry: %v", err)
	}

	for _, name := range ArrivalProcesses() {
		ad := &ArrivalsDoc{Process: name}
		if name == "trace" {
			ad.Trace = [][]int{{0}}
		}
		if _, err := ad.Resolve(0.5); err != nil {
			t.Errorf("registry arrival process %q rejected: %v", name, err)
		}
	}
	if _, err := (&ArrivalsDoc{Process: "tarot"}).Resolve(0.5); err == nil || !strings.Contains(err.Error(), Usage(ArrivalProcesses())) {
		t.Errorf("arrivals error does not advertise the registry: %v", err)
	}

	for _, name := range MultitaskModes() {
		if _, err := ParseMultitask(name, 0); err != nil {
			t.Errorf("registry multitask mode %q rejected: %v", name, err)
		}
	}
	if _, err := ParseMultitask("anarchy", 0); err == nil || !strings.Contains(err.Error(), Usage(MultitaskModes())) {
		t.Errorf("ParseMultitask error does not advertise the registry: %v", err)
	}

	// The registries must agree with the sim layer's own mode list.
	if got, want := Usage(MultitaskModes()), Usage(sim.MultitaskModes()); got != want {
		t.Errorf("multitask registries diverged: workload %q vs sim %q", got, want)
	}
}
