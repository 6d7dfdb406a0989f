// Benchmarks for the simulation hot path, in the external test package
// so the built-in corpus of internal/workload can be imported without a
// cycle (workload's library code imports sim).
package sim_test

import (
	"fmt"
	"testing"

	"drhwsched/internal/platform"
	"drhwsched/internal/sim"
	"drhwsched/internal/workload"
)

func benchMix() []sim.TaskMix {
	var mix []sim.TaskMix
	for _, app := range workload.Multimedia() {
		mix = append(mix, sim.TaskMix{Task: app.Task, ScenarioWeights: app.ScenarioWeights})
	}
	return mix
}

// BenchmarkSimRun measures sim.Run on the built-in multimedia corpus.
// Run with -benchmem: the staged kernel's scratch reuse shows up in the
// allocs/op column (design-time preparation is amortized over the 100
// simulated iterations, so the per-iteration loop dominates). The
// run-time+inter-task row is the decision table's miss-heavy path: its
// load floors vary from instance to instance, so far more of its
// decisions miss the table than on the run-time row.
func BenchmarkSimRun(b *testing.B) {
	mix := benchMix()
	p := platform.Default(8)
	p.ISPs = 1
	for _, ap := range []sim.Approach{sim.NoPrefetch, sim.RunTime, sim.RunTimeInterTask, sim.Hybrid} {
		b.Run(fmt.Sprint(ap), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(mix, p, sim.Options{Approach: ap, Iterations: 100, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimRunParallel measures sharded execution of the no-prefetch
// flow at worker counts 1, 2 and 4 (workers=1 isolates the sharding
// machinery's own cost; higher counts show the scaling headroom —
// meaningful only on hosts with that many CPUs, which is why
// BENCH_baseline.json records host_cpus next to every row and the
// benchgate speedup check is conditional on it).
func BenchmarkSimRunParallel(b *testing.B) {
	mix := benchMix()
	p := platform.Default(8)
	p.ISPs = 1
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			opt := sim.Options{
				Approach:    sim.NoPrefetch,
				Iterations:  400,
				Seed:        1,
				Parallelism: workers,
			}
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(mix, p, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMultitaskRun measures the event-driven multitask kernel on a
// double-width (16-tile) platform at partition counts 1, 2 and 4: the
// cost of the fabric admission loop itself (partitions=1 is whole-
// fabric admission through the partition path) and how claim
// granularity changes the hot path. scripts/bench.sh turns this into
// BENCH_fabric.json next to BENCH_sim.json.
func BenchmarkMultitaskRun(b *testing.B) {
	mix := benchMix()
	p := platform.Default(16)
	p.ISPs = 1
	for _, parts := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("partitions=%d", parts), func(b *testing.B) {
			b.ReportAllocs()
			opt := sim.Options{
				Approach:   sim.RunTime,
				Iterations: 100,
				Seed:       1,
				Multitask:  sim.Multitask{Mode: "partition", Partitions: parts},
			}
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(mix, p, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMultitaskRunParallel measures chunk-sharded execution of the
// partitioned multitask kernel at worker counts 1 and 4 — the load the
// tentpole targets: many-iteration partition-admission runs fanned out
// across cores. workers=1 isolates the sharding machinery's cost under
// multitask admission; workers=4 is the scaling row benchgate holds to
// its speedup floor on hosts with at least four CPUs (host_cpus is in
// every BENCH_fabric.json row).
func BenchmarkMultitaskRunParallel(b *testing.B) {
	mix := benchMix()
	p := platform.Default(16)
	p.ISPs = 1
	for _, parts := range []int{2, 4} {
		for _, workers := range []int{1, 4} {
			b.Run(fmt.Sprintf("partitions=%d/workers=%d", parts, workers), func(b *testing.B) {
				b.ReportAllocs()
				opt := sim.Options{
					Approach:    sim.RunTime,
					Iterations:  400,
					Seed:        1,
					Parallelism: workers,
					Multitask:   sim.Multitask{Mode: "partition", Partitions: parts},
				}
				for i := 0; i < b.N; i++ {
					if _, err := sim.Run(mix, p, opt); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
