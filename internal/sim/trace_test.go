// Cross-checks for the observability seam (Options.Trace): a traced
// run must report aggregates bit-identical to the untraced run, and the
// recorded event stream must re-derive those aggregates exactly —
// retirement accounting sums to IdealTotal and the overhead, load
// events carry the same prefetch-hit / demand-miss split the Result
// counts, and the latest fabric event lands on the final clock (the sum
// of the per-iteration makespans the Observer sees).
package sim_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"drhwsched/internal/graph"
	"drhwsched/internal/model"
	"drhwsched/internal/obs"
	"drhwsched/internal/platform"
	"drhwsched/internal/sim"
	"drhwsched/internal/tcm"
)

// tracedMix is the multimedia corpus plus one task with a software
// stage, so the event stream exercises the ISP track too.
func tracedMix() []sim.TaskMix {
	g := graph.New("mixed")
	a := g.AddSubtask("hw-front", 8*model.Millisecond)
	b := g.AddSubtask("sw-mid", 5*model.Millisecond)
	g.SetOnISP(b, true)
	c := g.AddSubtask("hw-back", 6*model.Millisecond)
	g.AddEdge(a, b)
	g.AddEdge(b, c)
	return append(goldenMix("multimedia"), sim.TaskMix{Task: tcm.NewTask("mixed", g)})
}

// TestTraceCrossCheck runs every approach at Parallelism 0 (one
// whole-run replication) and, as subtests, at Parallelism 2 and
// AutoParallelism, where the 60 iterations span two 32-iteration
// replications whose events must land on one timeline.
func TestTraceCrossCheck(t *testing.T) {
	approaches := []sim.Approach{
		sim.NoPrefetch, sim.DesignTimePrefetch, sim.RunTime, sim.RunTimeInterTask, sim.Hybrid,
	}
	for _, ap := range approaches {
		ap := ap
		t.Run(ap.String(), func(t *testing.T) {
			traceCrossCheck(t, ap, 0)
			for _, par := range []int{2, sim.AutoParallelism} {
				t.Run(fmt.Sprintf("parallelism=%d", par), func(t *testing.T) {
					traceCrossCheck(t, ap, par)
				})
			}
		})
	}
}

func traceCrossCheck(t *testing.T, ap sim.Approach, parallelism int) {
	t.Helper()
	p := platform.Default(8)
	p.ISPs = 1
	mix := tracedMix()
	opt := sim.Options{Approach: ap, Iterations: 60, Seed: 11, Parallelism: parallelism}

	base, err := sim.Run(mix, p, opt)
	if err != nil {
		t.Fatal(err)
	}

	rec := obs.NewRecorder(1 << 20)
	var makespanSum model.Dur
	topt := opt
	topt.Trace = rec
	topt.Observer = func(ir sim.IterationRecord) { makespanSum += ir.Makespan }
	traced, err := sim.Run(mix, p, topt)
	if err != nil {
		t.Fatal(err)
	}

	// Tracing must never alter results.
	if !reflect.DeepEqual(base, traced) {
		t.Fatalf("traced aggregates diverge from untraced:\n untraced: %+v\n traced:   %+v", base, traced)
	}
	if rec.Drops() != 0 {
		t.Fatalf("recorder dropped %d events under a %d-event capacity", rec.Drops(), 1<<20)
	}

	// Re-derive the aggregates from the event stream.
	events := rec.Events()
	var (
		ideal, overhead                       model.Dur
		loads, hits, misses, retires, victims int
		end, execEnd                          model.Time
		iterEnd                               = map[int]model.Time{}
	)
	for _, ev := range events {
		switch ev.Kind {
		case obs.KindRetire:
			retires++
			ideal += ev.Ideal
			overhead += ev.Overhead
		case obs.KindLoad:
			loads++
			if ev.Prefetch {
				hits++
			} else {
				misses++
			}
		case obs.KindVictim:
			victims++
		}
		if ev.Kind != obs.KindStage && ev.End > end {
			end = ev.End
		}
		if ev.Kind == obs.KindStage && ev.Detail == "execute" {
			// Iterations chain on one timeline, replication boundaries
			// included: each execute window opens where the previous
			// one closed.
			if ev.Start != execEnd || ev.End < ev.Start {
				t.Fatalf("iteration %d executes over [%v, %v]; the previous iteration ended at %v",
					ev.Iter, ev.Start, ev.End, execEnd)
			}
			execEnd = ev.End
			iterEnd[ev.Iter] = ev.End
		}
	}
	for _, ev := range events {
		if ev.Kind != obs.KindStage && (ev.Start < 0 || ev.End > iterEnd[ev.Iter]) {
			t.Fatalf("%v event of iteration %d spans [%v, %v], past its iteration's end %v",
				ev.Kind, ev.Iter, ev.Start, ev.End, iterEnd[ev.Iter])
		}
	}
	if len(iterEnd) != opt.Iterations {
		t.Fatalf("%d execute stage events, want one per iteration (%d)", len(iterEnd), opt.Iterations)
	}
	if retires != traced.Instances {
		t.Fatalf("retire events %d != Result.Instances %d", retires, traced.Instances)
	}
	if ideal != traced.IdealTotal {
		t.Fatalf("sum of retire ideal %v != Result.IdealTotal %v", ideal, traced.IdealTotal)
	}
	if want := traced.ActualTotal - traced.IdealTotal; overhead != want {
		t.Fatalf("sum of retire overhead %v != Actual-Ideal %v", overhead, want)
	}
	if loads != traced.Loads {
		t.Fatalf("load events %d != Result.Loads %d", loads, traced.Loads)
	}
	if hits != traced.PrefetchHits || misses != traced.DemandMisses {
		t.Fatalf("event attribution %d hits / %d misses != Result %d / %d",
			hits, misses, traced.PrefetchHits, traced.DemandMisses)
	}
	if hits+misses != traced.Loads {
		t.Fatalf("attributed loads %d != total loads %d", hits+misses, traced.Loads)
	}
	// The final fabric event ends on the final clock: iterations
	// chain, so the makespans the Observer saw sum to it.
	if model.Dur(end) != makespanSum {
		t.Fatalf("latest event end %v != sum of iteration makespans %v", end, makespanSum)
	}

	// Summarize agrees with the Result on every shared count.
	sum := obs.Summarize(events)
	if sum.Instances != traced.Instances || sum.Loads != traced.Loads ||
		sum.PrefetchHits != traced.PrefetchHits || sum.DemandMisses != traced.DemandMisses {
		t.Fatalf("Summarize %+v disagrees with Result (instances %d loads %d hits %d misses %d)",
			sum, traced.Instances, traced.Loads, traced.PrefetchHits, traced.DemandMisses)
	}
	if sum.Ideal != traced.IdealTotal {
		t.Fatalf("Summarize ideal %v != Result.IdealTotal %v", sum.Ideal, traced.IdealTotal)
	}
	for i, d := range traced.ISPBusy {
		if sum.ISPBusy[i] != d {
			t.Fatalf("ISP %d busy from events %v != Result.ISPBusy %v", i, sum.ISPBusy[i], d)
		}
	}
	if len(traced.ISPBusy) != 1 || traced.ISPBusy[0] == 0 {
		t.Fatalf("expected software stage to accumulate ISP busy time, got %v", traced.ISPBusy)
	}
	if traced.Loads > 0 && ap != sim.NoPrefetch && victims == 0 && traced.Reuses == 0 {
		// Replacement churn under reuse approaches shows up as
		// victim events; reuse-free approaches never commit state.
		t.Logf("no victim events for %v (loads=%d)", ap, traced.Loads)
	}
	checkVictimsPairWithLoads(t, ap, events)

	// The exported document must pass the schema validator with
	// the recorded reconfiguration attribution intact.
	var buf bytes.Buffer
	if err := obs.ChromeTrace(&buf, events, rec.Drops()); err != nil {
		t.Fatal(err)
	}
	st, err := obs.ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("exported trace fails schema validation: %v", err)
	}
	if st.Loads != traced.Loads || st.PrefetchHits != traced.PrefetchHits || st.DemandMisses != traced.DemandMisses {
		t.Fatalf("exported trace counts (loads %d hits %d misses %d) != Result (%d / %d / %d)",
			st.Loads, st.PrefetchHits, st.DemandMisses, traced.Loads, traced.PrefetchHits, traced.DemandMisses)
	}
}

// checkVictimsPairWithLoads requires every victim event to name the
// load that evicted it: a load of the same instance (Iter, Seq) on the
// same tile at the same instant, bringing in the configuration the
// victim event names as its replacement (Detail). Under the hybrid
// approach the initialization loads overwrite tiles too, so at least
// one victim must pair with an "init" load.
func checkVictimsPairWithLoads(t *testing.T, ap sim.Approach, events []obs.Event) {
	t.Helper()
	type slot struct {
		iter, seq, tile int
		start           model.Time
	}
	loads := map[slot][]obs.Event{}
	for _, ev := range events {
		if ev.Kind == obs.KindLoad {
			k := slot{ev.Iter, ev.Seq, ev.Tile, ev.Start}
			loads[k] = append(loads[k], ev)
		}
	}
	initVictims := 0
	for _, ev := range events {
		if ev.Kind != obs.KindVictim {
			continue
		}
		paired := false
		for _, ld := range loads[slot{ev.Iter, ev.Seq, ev.Tile, ev.Start}] {
			if ld.Config == ev.Detail {
				paired = true
				if ld.Detail == "init" {
					initVictims++
				}
				break
			}
		}
		if !paired {
			t.Fatalf("victim event %+v has no load of %q on its tile at its instant", ev, ev.Detail)
		}
	}
	if ap == sim.Hybrid && initVictims == 0 {
		t.Fatal("no victim event pairs with a hybrid initialization load")
	}
}

// TestTraceBoundedDrops pins the bounded-ring contract: a tiny recorder
// keeps the oldest events, counts the rest as drops, and the run still
// completes with bit-identical aggregates.
func TestTraceBoundedDrops(t *testing.T) {
	mix := goldenMix("multimedia")
	p := platform.Default(8)
	opt := sim.Options{Approach: sim.Hybrid, Iterations: 40, Seed: 5}
	base, err := sim.Run(mix, p, opt)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder(16)
	topt := opt
	topt.Trace = rec
	traced, err := sim.Run(mix, p, topt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, traced) {
		t.Fatal("a saturated recorder altered the aggregates")
	}
	if rec.Len() != 16 {
		t.Fatalf("recorder holds %d events, want its capacity 16", rec.Len())
	}
	if rec.Drops() == 0 {
		t.Fatal("a 16-event recorder on a 40-iteration run should have dropped events")
	}
	var buf bytes.Buffer
	if err := obs.ChromeTrace(&buf, rec.Events(), rec.Drops()); err != nil {
		t.Fatal(err)
	}
	st, err := obs.ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if st.Dropped != rec.Drops() {
		t.Fatalf("exported drop count %d != recorder drops %d", st.Dropped, rec.Drops())
	}
}
