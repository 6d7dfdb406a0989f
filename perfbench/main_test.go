package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func loadRepoDeclared(t *testing.T) *declared {
	t.Helper()
	d, err := loadDeclared("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestSelfCheckRejects pins the output self-check: a missing metric, a
// wrong unit, a non-finite value and an undeclared metric each fail.
func TestSelfCheckRejects(t *testing.T) {
	d := loadRepoDeclared(t)
	full := func() *result {
		r := &result{Correct: true, Attempted: 1, Metrics: map[string]metric{}}
		for _, m := range d.EndToEnd {
			r.Metrics[m.Name] = metric{1, m.Unit}
		}
		return r
	}
	if err := d.check(full(), false); err != nil {
		t.Fatalf("complete result rejected: %v", err)
	}
	if err := d.check(full(), true); err == nil {
		t.Fatal("end-to-end metrics accepted as a traced result")
	}
	first := d.EndToEnd[0].Name
	cases := map[string]func(r *result){
		"missing":    func(r *result) { delete(r.Metrics, first) },
		"unit":       func(r *result) { r.Metrics[first] = metric{1, "furlongs"} },
		"nan":        func(r *result) { r.Metrics[first] = metric{math.NaN(), d.EndToEnd[0].Unit} },
		"inf":        func(r *result) { r.Metrics[first] = metric{math.Inf(1), d.EndToEnd[0].Unit} },
		"undeclared": func(r *result) { r.Metrics["bogus"] = metric{1, "s"} },
		"attempted":  func(r *result) { r.Attempted = 0 },
		"failed":     func(r *result) { r.Failed = 2 },
	}
	for name, mutate := range cases {
		r := full()
		mutate(r)
		if err := d.check(r, false); err == nil {
			t.Errorf("%s: self-check passed", name)
		}
	}
}

// TestMinimalRuns runs every workload for one second, untraced and
// traced, through the command's entry point: the last line must be a
// result the self-check accepts, correct and with no failures.
func TestMinimalRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	d := loadRepoDeclared(t)
	for _, name := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace="+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", name, "--seed", "7", "--seconds", "1", "--trace", trace,
					"--root", "..", "--out", t.TempDir()}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d\n%s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v", err)
				}
				if err := d.check(&res, trace == "1"); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 {
					t.Fatalf("correct=%v failed=%d\n%s", res.Correct, res.Failed, stderr.String())
				}
			})
		}
	}
}

// TestBadInvocations exits non-zero without a result.
func TestBadInvocations(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nosuch", "--root", ".."},
		{"--workload", "paper-grid", "--trace", "2", "--root", ".."},
		{"--workload", "paper-grid", "--root", t.TempDir()},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}
