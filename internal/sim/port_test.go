package sim

import (
	"testing"

	"drhwsched/internal/graph"
	"drhwsched/internal/model"
	"drhwsched/internal/platform"
	"drhwsched/internal/tcm"
)

// parallelLoadTask builds a task of n independent hardware subtasks
// with configurations unique to the task, so instances of different
// tasks can never reuse each other's residency and every subtask is a
// real reconfiguration.
func parallelLoadTask(name string, n int) *tcm.Task {
	g := graph.New(name)
	for i := 0; i < n; i++ {
		g.AddConfigured(string(rune('a'+i)), 2*model.Millisecond,
			graph.ConfigID(name+"/"+string(rune('a'+i))))
	}
	return tcm.NewTask(name, g)
}

// TestPortVectorCarriedAcrossInstances is the multi-port regression:
// the kernel used to carry only port 0's availability between instances
// (portFree model.Time fed from PortFreeAfter[0]), so on a multi-port
// platform the idle time of every other controller leaked and the
// inter-task optimization prefetched later than the hardware allowed.
// With three loads on two ports the controllers drain at different
// instants; the fabric must remember both.
func TestPortVectorCarriedAcrossInstances(t *testing.T) {
	mix := []TaskMix{{Task: parallelLoadTask("t0", 3)}, {Task: parallelLoadTask("t1", 3)}}
	p := platform.Default(3)
	p.Ports = 2
	opt := Options{
		Approach:   RunTimeInterTask,
		Iterations: 4,
		Seed:       1,
		Arrivals:   Trace{Iterations: [][]int{{0}, {1}}},
	}
	k, err := newKernel(mix, p, opt)
	if err != nil {
		t.Fatal(err)
	}
	two, err := k.run()
	if err != nil {
		t.Fatal(err)
	}
	ports := k.fab.PortFree()
	if len(ports) != 2 {
		t.Fatalf("fabric tracks %d ports, want 2", len(ports))
	}
	if ports[0] == ports[1] {
		t.Fatalf("per-port availability collapsed to one value (%v): the full vector is not carried", ports[0])
	}

	// The second controller's carried idle time is real capacity: the
	// same run on a single port must pay strictly more overhead.
	p1 := p
	p1.Ports = 1
	one, err := Run(mix, p1, opt)
	if err != nil {
		t.Fatal(err)
	}
	if two.ActualTotal >= one.ActualTotal {
		t.Fatalf("2-port run (%v actual) no faster than 1-port (%v): inter-instance port capacity unused",
			two.ActualTotal, one.ActualTotal)
	}
	if two.Loads != one.Loads {
		t.Fatalf("port count changed the load count: %d vs %d", two.Loads, one.Loads)
	}

	// Hybrid hands its ports on through the same evaluated timeline, so
	// every controller's clock advances with each instance (port 1's
	// used to stay at zero: only port 0 was carried).
	opt.Approach = Hybrid
	k, err = newKernel(mix, p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.run(); err != nil {
		t.Fatal(err)
	}
	ports = k.fab.PortFree()
	for q, free := range ports {
		if free == 0 {
			t.Fatalf("hybrid left port %d's clock at zero (%v): the port vector is not carried", q, ports)
		}
	}
}
