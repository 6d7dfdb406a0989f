// Lookahead tests: the kernel builds the upcoming configuration stream
// for exactly the replacement policies that declare they read it
// (reconfig.Lookahead), and hands every other policy nil.
package sim_test

import (
	"testing"

	"drhwsched/internal/graph"
	"drhwsched/internal/platform"
	"drhwsched/internal/reconfig"
	"drhwsched/internal/sim"
)

// recorder evicts like LRU and counts its victim calls and those that
// received a lookahead stream.
type recorder struct{ calls, withFuture int }

func (r *recorder) Name() string { return "recorder" }

func (r *recorder) Victim(st *reconfig.State, candidates []int, future []graph.ConfigID) int {
	r.calls++
	if future != nil {
		r.withFuture++
	}
	return reconfig.LRU{}.Victim(st, candidates, future)
}

// reader is a recorder that declares it reads the stream.
type reader struct{ *recorder }

func (reader) ReadsFuture() {}

// forwarder wraps a policy, as a timing layer does, and passes every
// call through without declaring lookahead itself.
type forwarder struct{ inner reconfig.Policy }

func (f forwarder) Name() string { return f.inner.Name() }

func (f forwarder) Victim(st *reconfig.State, candidates []int, future []graph.ConfigID) int {
	return f.inner.Victim(st, candidates, future)
}

var _ reconfig.Lookahead = reader{}

func TestLookaheadDerivedFromPolicy(t *testing.T) {
	p := platform.Default(8)
	p.ISPs = 1
	for _, c := range []struct {
		name   string
		policy func(*recorder) reconfig.Policy
		want   bool
	}{
		{"declared", func(r *recorder) reconfig.Policy { return reader{r} }, true},
		{"undeclared", func(r *recorder) reconfig.Policy { return r }, false},
		{"forwarded", func(r *recorder) reconfig.Policy { return forwarder{reader{r}} }, false},
	} {
		for _, mode := range []string{"serial", "greedy"} {
			rec := new(recorder)
			_, err := sim.Run(goldenMix("multimedia"), p, sim.Options{
				Approach: sim.RunTime, Iterations: 60, Seed: 1,
				Policy: c.policy(rec), Multitask: sim.Multitask{Mode: mode},
			})
			if err != nil {
				t.Fatal(err)
			}
			if rec.calls == 0 {
				t.Fatalf("%s/%s: no victim calls — the corpus should evict", c.name, mode)
			}
			want := 0
			if c.want {
				want = rec.calls
			}
			if rec.withFuture != want {
				t.Fatalf("%s/%s: %d of %d victim calls got a lookahead stream, want %d",
					c.name, mode, rec.withFuture, rec.calls, want)
			}
		}
	}
}
