package gantt

import (
	"strings"
	"testing"

	"drhwsched/internal/graph"
	"drhwsched/internal/model"
	"drhwsched/internal/platform"
	"drhwsched/internal/schedule"
)

func sample(t *testing.T) (schedule.Input, *schedule.Timeline) {
	t.Helper()
	g := graph.New("g")
	a := g.AddSubtask("alpha", 10*model.Millisecond)
	b := g.AddSubtask("beta", 10*model.Millisecond)
	g.AddEdge(a, b)
	in := schedule.Input{
		G:          g,
		P:          platform.Default(2),
		Assignment: []int{0, 1},
		TileOrder:  [][]graph.SubtaskID{{a}, {b}},
		PortOrder:  []graph.SubtaskID{a, b},
	}
	tl, err := schedule.Compute(in, schedule.Instance{})
	if err != nil {
		t.Fatal(err)
	}
	return in, tl
}

func TestGanttShape(t *testing.T) {
	in, tl := sample(t)
	out := Gantt(in, tl, Options{Width: 40})
	if !strings.Contains(out, "tile 0") || !strings.Contains(out, "tile 1") || !strings.Contains(out, "port") {
		t.Fatalf("missing rows:\n%s", out)
	}
	if !strings.Contains(out, "L") {
		t.Fatalf("missing load blocks:\n%s", out)
	}
	if !strings.Contains(out, "0") || !strings.Contains(out, "1") {
		t.Fatalf("missing exec blocks:\n%s", out)
	}
	if !strings.Contains(out, "makespan") {
		t.Fatalf("missing header:\n%s", out)
	}
}

func TestGanttDefaultsAndWindow(t *testing.T) {
	in, tl := sample(t)
	full := Gantt(in, tl, Options{})
	if len(full) == 0 {
		t.Fatal("empty chart")
	}
	window := Gantt(in, tl, Options{Width: 20, From: 0, To: model.Time(4 * model.Millisecond)})
	if !strings.Contains(window, "4ms") {
		t.Fatalf("window header:\n%s", window)
	}
}

func TestEventsChronological(t *testing.T) {
	in, tl := sample(t)
	out := Events(in, tl)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // 2 loads + 2 execs
		t.Fatalf("got %d events:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "load  alpha") {
		t.Fatalf("first event should be alpha's load:\n%s", out)
	}
	if !strings.Contains(lines[len(lines)-1], "exec  beta") {
		t.Fatalf("last event should be beta's execution:\n%s", out)
	}
}

func TestManySubtaskLabels(t *testing.T) {
	g := graph.New("big")
	var order []graph.SubtaskID
	for i := 0; i < 40; i++ {
		order = append(order, g.AddSubtask("s", model.MS(1)))
	}
	g.Chain(order...)
	in := schedule.Input{
		G:          g,
		P:          platform.Default(1),
		Assignment: make([]int, 40),
		TileOrder:  [][]graph.SubtaskID{order},
	}
	tl, err := schedule.Compute(in, schedule.Instance{})
	if err != nil {
		t.Fatal(err)
	}
	out := Gantt(in, tl, Options{Width: 60})
	if !strings.Contains(out, "#") {
		t.Fatalf("ids beyond the glyph set should render as #:\n%s", out)
	}
}
