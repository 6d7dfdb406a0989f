package platform

import (
	"testing"

	"drhwsched/internal/model"
)

func TestDefaultMatchesPaper(t *testing.T) {
	p := Default(8)
	if p.Tiles != 8 {
		t.Fatalf("tiles = %d", p.Tiles)
	}
	if p.ReconfigLatency != 4*model.Millisecond {
		t.Fatalf("reconfig latency = %v, want 4ms", p.ReconfigLatency)
	}
	if p.Ports != 1 {
		t.Fatalf("ports = %d, want 1 (single reconfiguration controller)", p.Ports)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	cases := []Platform{
		{Tiles: 0, Ports: 1},
		{Tiles: 1, Ports: 0},
		{Tiles: 1, Ports: 1, ReconfigLatency: -1},
		{Tiles: maxCount + 1, Ports: 1},
		{Tiles: 1, Ports: maxCount + 1},
		{Tiles: 1, Ports: 1, ISPs: maxCount + 1},
	}
	for i, p := range cases {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
	edge := Platform{Tiles: maxCount, Ports: maxCount, ISPs: maxCount}
	if err := edge.Validate(); err != nil {
		t.Errorf("platform at the limit: %v", err)
	}
}

func TestLoadLatencyOverride(t *testing.T) {
	p := Default(4)
	if got := p.LoadLatency(0); got != 4*model.Millisecond {
		t.Fatalf("default latency = %v", got)
	}
	if got := p.LoadLatency(model.MS(1)); got != model.MS(1) {
		t.Fatalf("override latency = %v", got)
	}
}

func TestEnergyAccounting(t *testing.T) {
	p := Default(1)
	if got := p.ExecEnergy(10 * model.Millisecond); got != 900 {
		t.Fatalf("ExecEnergy = %v", got)
	}
	if got := p.IdleEnergy(10 * model.Millisecond); got != 150 {
		t.Fatalf("IdleEnergy = %v", got)
	}
}

func TestString(t *testing.T) {
	s := Default(3).String()
	if s == "" {
		t.Fatal("empty string")
	}
}
