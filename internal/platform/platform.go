// Package platform describes the reconfigurable hardware the scheduler
// targets: a set of identical DRHW tiles behind a small number of
// reconfiguration controllers, following the ICN model of Marescaux and
// Mignolet in which an FPGA is split into tiles that are reconfigured
// independently and communicate over a network on chip.
//
// The paper's platform is a Virtex-II class FPGA: reconfiguring one tile
// takes about 4 ms and a single reconfiguration port serializes all
// loads. Both numbers are fields here, so coarse-grain devices with
// cheaper reconfiguration can be modelled by lowering ReconfigLatency.
package platform

import (
	"errors"
	"fmt"

	"drhwsched/internal/model"
)

// Platform is an immutable description of the hardware.
type Platform struct {
	// Tiles is the number of identical DRHW tiles.
	Tiles int
	// ReconfigLatency is the default time to load one subtask
	// configuration onto a tile. Subtasks may override it.
	ReconfigLatency model.Dur
	// Ports is the number of reconfiguration controllers. Loads
	// serialize within a port. The paper's FPGAs have exactly one.
	Ports int
	// ISPs is the number of embedded instruction-set processors the
	// ICN model couples with the tiles. Subtasks marked OnISP run
	// there without any reconfiguration. Zero is valid: an all-DRHW
	// platform.
	ISPs int
	// Energy model, used for the energy bookkeeping of the run-time
	// scheduler: LoadEnergy is charged per reconfiguration performed;
	// ActivePower (per tile, per unit time) is charged while a tile
	// executes; IdlePower while it sits configured but idle.
	LoadEnergy  float64 // mJ per load
	ActivePower float64 // mW (mJ per ms)
	IdlePower   float64 // mW
}

// Default returns the paper's experimental platform: n tiles, 4 ms
// reconfiguration latency, one reconfiguration controller, and an energy
// model in the range published for Virtex-II partial reconfiguration.
func Default(n int) Platform {
	return Platform{
		Tiles:           n,
		ReconfigLatency: 4 * model.Millisecond,
		Ports:           1,
		LoadEnergy:      12.0,
		ActivePower:     90.0,
		IdlePower:       15.0,
	}
}

// maxCount bounds the tile, ISP and port counts. The schedulers and the
// fabric allocate per processor and per port, so an unbounded count in
// a request document would size those buffers; 1024 is far above any
// platform the paper or the workloads describe (at most 16 tiles).
const maxCount = 1024

// Validate reports whether the description is usable.
func (p Platform) Validate() error {
	if p.Tiles < 1 {
		return fmt.Errorf("platform: need at least one tile, got %d", p.Tiles)
	}
	if p.Ports < 1 {
		return fmt.Errorf("platform: need at least one reconfiguration port, got %d", p.Ports)
	}
	if p.ReconfigLatency < 0 {
		return errors.New("platform: negative reconfiguration latency")
	}
	if p.ISPs < 0 {
		return fmt.Errorf("platform: negative ISP count %d", p.ISPs)
	}
	if p.Tiles > maxCount || p.ISPs > maxCount || p.Ports > maxCount {
		return fmt.Errorf("platform: %d tiles, %d ISPs, %d ports exceeds the limit of %d each", p.Tiles, p.ISPs, p.Ports, maxCount)
	}
	return nil
}

// Processors is the total number of processing elements: DRHW tiles
// followed by ISPs. Processor indices in [0, Tiles) are tiles; indices
// in [Tiles, Processors) are ISPs.
func (p Platform) Processors() int { return p.Tiles + p.ISPs }

// IsISP reports whether a processor index denotes an ISP.
func (p Platform) IsISP(proc int) bool { return proc >= p.Tiles }

// LoadLatency resolves the effective reconfiguration latency for a
// subtask-specific override (0 means "use the platform default").
func (p Platform) LoadLatency(override model.Dur) model.Dur {
	if override > 0 {
		return override
	}
	return p.ReconfigLatency
}

// ExecEnergy returns the energy consumed by a tile executing for d.
func (p Platform) ExecEnergy(d model.Dur) float64 {
	return p.ActivePower * d.Milliseconds()
}

// IdleEnergy returns the energy consumed by a configured, idle tile
// over d.
func (p Platform) IdleEnergy(d model.Dur) float64 {
	return p.IdlePower * d.Milliseconds()
}

// String summarizes the platform for logs and reports.
func (p Platform) String() string {
	return fmt.Sprintf("%d tiles, %v reconfig, %d port(s)", p.Tiles, p.ReconfigLatency, p.Ports)
}
