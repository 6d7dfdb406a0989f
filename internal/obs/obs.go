// Package obs is the run-time observability layer: a bounded event
// recorder threaded through the simulation kernel, a Chrome
// trace-event exporter for the recorded timelines, W3C traceparent
// propagation for cross-service request correlation, and a strict
// Prometheus text-exposition validator used by the metrics tests.
//
// The recorder is a seam, not a dependency: every producer guards its
// emission with a nil check, so a disabled recorder costs one pointer
// comparison on the hot path and zero allocations (the sim allocation
// budgets pin this). When enabled, events land in a bounded ring;
// once full, new events are dropped and counted — recording never
// blocks and never grows without bound.
package obs

import (
	"sync"

	"drhwsched/internal/model"
)

// Kind classifies a recorded event.
type Kind uint8

const (
	// KindAdmit marks a task instance winning fabric admission.
	KindAdmit Kind = iota
	// KindQueue is the interval an instance waited for admission.
	KindQueue
	// KindRetire spans an instance from admission to completion and
	// carries its ideal/overhead accounting.
	KindRetire
	// KindLoad is one reconfiguration: a subtask's configuration
	// loading onto a tile through a port. Prefetch records whether
	// the load was hidden (prefetch hit) or stalled the execution
	// (demand miss).
	KindLoad
	// KindExec is a subtask execution on a tile.
	KindExec
	// KindISPBusy is a subtask execution on an instruction-set
	// processor.
	KindISPBusy
	// KindPortStall is the interval an instance's reconfigurations
	// waited for the port circuitry to drain a previous owner.
	KindPortStall
	// KindVictim is a replacement-policy eviction: a resident
	// configuration overwritten by a different one.
	KindVictim
	// KindStage is a kernel stage timing in wall-clock microseconds
	// (WallUS), not simulated time.
	KindStage
)

var kindNames = [...]string{
	KindAdmit:     "admit",
	KindQueue:     "queue",
	KindRetire:    "retire",
	KindLoad:      "load",
	KindExec:      "exec",
	KindISPBusy:   "isp-busy",
	KindPortStall: "port-stall",
	KindVictim:    "victim",
	KindStage:     "stage",
}

// String names the kind for wire forms and track labels.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one recorded occurrence. Fields that do not apply to a
// kind are zero; index fields use -1 for "not involved".
type Event struct {
	Kind Kind
	// Iter is the simulated iteration the event belongs to.
	Iter int
	// Seq is the per-run task-instance sequence number.
	Seq int
	// Task names the task the instance runs; Subtask and Config name
	// the subtask and configuration for load/exec/victim events.
	Task    string
	Subtask string
	Config  string
	// Tile is the physical tile, Port the reconfiguration port, ISP
	// the instruction-set processor; -1 when not involved.
	Tile int
	Port int
	ISP  int
	// Start and End bound the event in simulated time. Instant
	// events carry Start == End.
	Start model.Time
	End   model.Time
	// Prefetch marks a KindLoad as hidden behind computation
	// (prefetch hit) rather than stalling it (demand miss).
	Prefetch bool
	// Ideal and Overhead carry a KindRetire's accounting.
	Ideal    model.Dur
	Overhead model.Dur
	// WallUS is wall-clock duration for KindStage events.
	WallUS int64
	// Detail carries kind-specific context (stage name, the
	// replacing configuration for victims).
	Detail string
}

// DefaultCapacity bounds a Recorder built with capacity <= 0. At
// ~30 events per multimedia iteration this holds a few thousand
// iterations before dropping.
const DefaultCapacity = 1 << 16

// Recorder collects events into a bounded ring. The zero value is
// not usable; build with NewRecorder. A nil *Recorder is a valid
// "disabled" recorder: Record is a no-op and Enabled reports false.
//
// Record is safe for concurrent use, but the simulation kernel feeds
// it from one goroutine (a traced run executes its replications in
// order), so the mutex is uncontended there.
type Recorder struct {
	mu     sync.Mutex
	events []Event
	cap    int
	drops  int64
}

// NewRecorder builds a recorder holding at most capacity events;
// capacity <= 0 uses DefaultCapacity.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{cap: capacity}
}

// Enabled reports whether events are being collected.
func (r *Recorder) Enabled() bool { return r != nil }

// Record appends an event. Once the ring is full the event is
// dropped and counted; recording never blocks.
func (r *Recorder) Record(ev Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if len(r.events) >= r.cap {
		r.drops++
	} else {
		r.events = append(r.events, ev)
	}
	r.mu.Unlock()
}

// Events returns a snapshot copy of the recorded events, in
// recording order.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return out
}

// Len reports the number of recorded (non-dropped) events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Drops reports how many events were discarded because the ring was
// full.
func (r *Recorder) Drops() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.drops
}

// Reset clears the ring and the drop counter, keeping the capacity.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.events = r.events[:0]
	r.drops = 0
	r.mu.Unlock()
}

// Summary aggregates a recorded event stream; the sim cross-check
// test compares these sums against the Result the run reported.
type Summary struct {
	Events       int
	Instances    int // retire events
	Loads        int // load events
	PrefetchHits int
	DemandMisses int
	Victims      int
	Ideal        model.Dur // summed over retires
	Overhead     model.Dur // summed over retires
	TileBusy     map[int]model.Dur
	ISPBusy      map[int]model.Dur
	// End is the latest simulated timestamp seen.
	End model.Time
}

// Summarize folds an event stream into per-kind totals.
func Summarize(events []Event) Summary {
	s := Summary{TileBusy: map[int]model.Dur{}, ISPBusy: map[int]model.Dur{}}
	for _, ev := range events {
		s.Events++
		if ev.Kind != KindStage && ev.End > s.End {
			s.End = ev.End
		}
		switch ev.Kind {
		case KindRetire:
			s.Instances++
			s.Ideal += ev.Ideal
			s.Overhead += ev.Overhead
		case KindLoad:
			s.Loads++
			if ev.Prefetch {
				s.PrefetchHits++
			} else {
				s.DemandMisses++
			}
			s.TileBusy[ev.Tile] += ev.End.Sub(ev.Start)
		case KindExec:
			s.TileBusy[ev.Tile] += ev.End.Sub(ev.Start)
		case KindISPBusy:
			s.ISPBusy[ev.ISP] += ev.End.Sub(ev.Start)
		case KindVictim:
			s.Victims++
		}
	}
	return s
}
