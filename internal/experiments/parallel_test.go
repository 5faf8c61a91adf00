package experiments

import (
	"context"
	"testing"
)

// runSuite runs the whole suite on a background context.
func runSuite(t *testing.T, b Budget) *Suite {
	t.Helper()
	s, err := RunSuiteCtx(context.Background(), b, SuiteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRunSuiteParallelRace(t *testing.T) {
	if testing.Short() {
		t.Skip("parallel suite")
	}
	s := runSuite(t, Budget{Warmup: 5_000, Measure: 10_000, Seed: 2})
	if len(s.Order) != 15 {
		t.Fatalf("suite ran %d benchmarks", len(s.Order))
	}
	for _, b := range s.Order {
		if len(s.Runs[b]) != 4 {
			t.Fatalf("%s: %d schemes", b, len(s.Runs[b]))
		}
	}
	// Determinism: a second run matches exactly.
	s2 := runSuite(t, Budget{Warmup: 5_000, Measure: 10_000, Seed: 2})
	for _, b := range s.Order {
		for id, run := range s.Runs[b] {
			if run.CPI != s2.Runs[b][id].CPI {
				t.Fatalf("%s/%v nondeterministic: %v vs %v", b, id, run.CPI, s2.Runs[b][id].CPI)
			}
		}
	}
}
