package sim_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"drhwsched/internal/platform"
	"drhwsched/internal/sim"
)

var updateHybridGolden = flag.Bool("update-hybrid-golden", false,
	"rewrite testdata/hybrid_matrix.golden from this tree")

// hybridGoldenPath holds one line of integer aggregates per hybrid run
// of hybridMatrix. Floats are left out, so architectures that fuse
// multiply-adds agree on every line.
var hybridGoldenPath = filepath.Join("testdata", "hybrid_matrix.golden")

// hybridMatrix runs the hybrid approach where its initialization phase
// bites: small fabrics (a tile holds several subtasks), several
// reconfiguration ports, the inter-task optimization on and off, every
// admission mode, and both execution semantics. It returns one line per
// run; a run that fails records its error instead.
func hybridMatrix() []string {
	var lines []string
	for _, wl := range []string{"multimedia", "pocketgl"} {
		mix := goldenMix(wl)
		for _, tiles := range []int{2, 3, 4, 5, 8, 16} {
			for ports := 1; ports <= 3; ports++ {
				p := platform.Default(tiles)
				p.Ports = ports
				for _, seed := range []int64{1, 20261017} {
					for _, inter := range []bool{true, false} {
						for _, mt := range []sim.Multitask{{}, {Mode: "greedy"}, {Mode: "partition", Partitions: 2}} {
							for _, par := range []int{0, 2} {
								mode := mt.Mode
								if mode == "" {
									mode = "serial"
								}
								head := fmt.Sprintf("%s tiles=%d ports=%d seed=%d intertask=%t mode=%s parallelism=%d:",
									wl, tiles, ports, seed, inter, mode, par)
								r, err := sim.Run(mix, p, sim.Options{
									Approach:         sim.Hybrid,
									Iterations:       64,
									Seed:             seed,
									DisableInterTask: !inter,
									Multitask:        mt,
									Parallelism:      par,
								})
								if err != nil {
									lines = append(lines, head+" error "+err.Error())
									continue
								}
								lines = append(lines, fmt.Sprintf("%s ideal=%d actual=%d loads=%d init=%d cancelled=%d reuses=%d hits=%d misses=%d",
									head, r.IdealTotal, r.ActualTotal, r.Loads, r.InitLoads, r.Cancelled,
									r.Reuses, r.PrefetchHits, r.DemandMisses))
							}
						}
					}
				}
			}
		}
	}
	return lines
}

// TestHybridMatrixGolden pins the hybrid approach's integer aggregates
// over hybridMatrix. Rewrite the file with -update-hybrid-golden only
// when a change of results is intended, and say so in the change log.
func TestHybridMatrixGolden(t *testing.T) {
	got := hybridMatrix()
	if *updateHybridGolden {
		if err := os.MkdirAll(filepath.Dir(hybridGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(hybridGoldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(hybridGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(got) != len(want) {
		t.Errorf("%d runs, golden has %d", len(got), len(want))
	}
	bad := 0
	for i := 0; i < min(len(got), len(want)); i++ {
		if got[i] != want[i] {
			bad++
			t.Errorf("line %d differs:\n got  %s\n want %s", i+1, got[i], want[i])
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d lines differ", bad, len(want))
	}
}
