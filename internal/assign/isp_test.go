package assign

import (
	"testing"

	"drhwsched/internal/graph"
	"drhwsched/internal/model"
	"drhwsched/internal/platform"
	"drhwsched/internal/schedule"
)

// hwSwMix builds the ICN model's mixed mapping: a software producer on
// the ISP feeding two hardware kernels, joined by a software collector.
func hwSwMix() *graph.Graph {
	g := graph.New("hwsw")
	src := g.AddSubtask("producer", 5*model.Millisecond)
	g.SetOnISP(src, true)
	a := g.AddSubtask("kernel-a", 10*model.Millisecond)
	b := g.AddSubtask("kernel-b", 10*model.Millisecond)
	sink := g.AddSubtask("collector", 5*model.Millisecond)
	g.SetOnISP(sink, true)
	g.AddEdge(src, a)
	g.AddEdge(src, b)
	g.AddEdge(a, sink)
	g.AddEdge(b, sink)
	return g
}

func ispPlatform(tiles, isps int) platform.Platform {
	p := platform.Default(tiles)
	p.ISPs = isps
	return p
}

func TestISPSubtasksLandOnISPRows(t *testing.T) {
	g := hwSwMix()
	p := ispPlatform(2, 1)
	s, err := List(g, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.ISPs != 1 || len(s.TileOrder) != 3 {
		t.Fatalf("rows: tiles=%d isps=%d orders=%d", s.Tiles, s.ISPs, len(s.TileOrder))
	}
	for i := 0; i < g.Len(); i++ {
		id := graph.SubtaskID(i)
		onISP := g.Subtask(id).OnISP
		row := s.Assignment[id]
		if onISP && row < s.Tiles {
			t.Fatalf("ISP subtask %d on tile row %d", i, row)
		}
		if !onISP && row >= s.Tiles {
			t.Fatalf("hardware subtask %d on ISP row %d", i, row)
		}
	}
	// Both ISP subtasks share the single ISP, serialized.
	if len(s.TileOrder[2]) != 2 {
		t.Fatalf("ISP row = %v", s.TileOrder[2])
	}
}

func TestISPSubtasksNeverLoad(t *testing.T) {
	g := hwSwMix()
	p := ispPlatform(2, 1)
	s, err := List(g, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	loads := s.AllLoads()
	if len(loads) != 2 {
		t.Fatalf("loads = %v, want only the two kernels", loads)
	}
	for _, id := range loads {
		if g.Subtask(id).OnISP {
			t.Fatalf("ISP subtask %d marked for loading", id)
		}
	}
}

func TestISPTimelineComputesAndVerifies(t *testing.T) {
	g := hwSwMix()
	p := ispPlatform(2, 1)
	s, err := List(g, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	in := s.EngineInput(p, s.AllLoads())
	tl, err := schedule.Compute(in, schedule.Instance{})
	if err != nil {
		t.Fatal(err)
	}
	if err := schedule.Verify(in, schedule.Instance{}, tl); err != nil {
		t.Fatal(err)
	}
	// The kernels' loads hide behind the producer's software execution:
	// only the port-serialized second load can expose anything.
	// producer 0-5 on ISP; loads 0-4 and 4-8; kernels 5-15 and 8-18;
	// collector 18-23.
	if tl.Makespan() != 23*model.Millisecond {
		t.Fatalf("makespan = %v, want 23ms", tl.Makespan())
	}
	if tl.LoadStart[1] != 0 {
		t.Fatalf("first kernel load at %v, want 0 (prefetched during software)", tl.LoadStart[1])
	}
}

func TestISPRequiredWhenGraphUsesIt(t *testing.T) {
	g := hwSwMix()
	if _, err := List(g, platform.Default(2), Options{}); err == nil {
		t.Fatal("want error: graph has ISP subtasks, platform has none")
	}
}

func TestEngineRejectsMisplacedISPSubtasks(t *testing.T) {
	g := hwSwMix()
	p := ispPlatform(2, 1)
	s, err := List(g, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	in := s.EngineInput(p, s.AllLoads())

	// ISP subtask forced onto a tile.
	bad := in
	bad.Assignment = append([]int(nil), in.Assignment...)
	badOrder := make([][]graph.SubtaskID, len(in.TileOrder))
	copy(badOrder, in.TileOrder)
	bad.Assignment[0] = 0
	badOrder[0] = append([]graph.SubtaskID{0}, in.TileOrder[0]...)
	badOrder[2] = in.TileOrder[2][1:]
	bad.TileOrder = badOrder
	if _, err := schedule.Compute(bad, schedule.Instance{}); err == nil {
		t.Fatal("want error for ISP subtask on a tile")
	}

	// ISP subtask marked for loading.
	bad2 := in
	bad2.PortOrder = append([]graph.SubtaskID{0}, in.PortOrder...)
	if _, err := schedule.Compute(bad2, schedule.Instance{}); err == nil {
		t.Fatal("want error for loading an ISP subtask")
	}
}
