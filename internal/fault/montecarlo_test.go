package fault

import (
	"testing"

	"cppc/internal/core"
)

// TestMonteCarloOrdering: at the same accelerated fault rate,
// detection-only parity dies orders of magnitude sooner than CPPC, and
// CPPC's failures are DUEs/censored, not silent.
func TestMonteCarloOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo lifetimes")
	}
	const lambda = 2e-7 // per bit per access, accelerated
	par := monteCarlo(t, parityFactory(), lambda, 10, 60_000, 41)
	cp := monteCarlo(t, cppcFactory(core.DefaultL1Config()), lambda, 10, 60_000, 41)

	if par.Censored == par.Trials {
		t.Fatal("parity never failed; raise lambda")
	}
	if cp.MeanAccessesToFailure < 3*par.MeanAccessesToFailure {
		t.Errorf("CPPC lifetime %.0f not well above parity %.0f",
			cp.MeanAccessesToFailure, par.MeanAccessesToFailure)
	}
	if par.SDCs != 0 {
		t.Errorf("parity produced SDCs: %+v", par)
	}
}

// TestMonteCarloMatchesAnalyticParity: the measured parity lifetime must
// sit near the first-fault model evaluated at the same rate and measured
// dirty population.
func TestMonteCarloMatchesAnalyticParity(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo lifetimes")
	}
	const lambda = 4e-7
	res := monteCarlo(t, parityFactory(), lambda, 20, 120_000, 43)
	if res.Censored > res.Trials/2 {
		t.Fatalf("too many censored trials: %+v", res)
	}
	analytic := AnalyticParityMTTFAccesses(lambda, res.MeanDirtyBits)
	ratio := res.MeanAccessesToFailure / analytic
	if ratio < 0.2 || ratio > 5 {
		t.Errorf("measured %.0f vs analytic %.0f (ratio %.2f) out of range",
			res.MeanAccessesToFailure, analytic, ratio)
	}
}

// TestMonteCarloCPPCWithinModelRange: the CPPC lifetime should agree with
// the double-fault model within an order of magnitude (the model is
// approximate: it quantizes time into Tavg windows and assumes uniform
// access).
func TestMonteCarloCPPCWithinModelRange(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo lifetimes")
	}
	const lambda = 3e-6 // hot enough that double faults happen in-window
	res := monteCarlo(t, cppcFactory(core.DefaultL1Config()), lambda, 15, 150_000, 47)
	if res.Censored == res.Trials {
		t.Skip("no failures at this rate; model comparison impossible")
	}
	if res.MeanTavgAccesses <= 0 || res.MeanDirtyBits <= 0 {
		t.Fatalf("campaign did not measure inputs: %+v", res)
	}
	analytic := AnalyticDoubleFaultMTTFAccesses(
		lambda, res.MeanDirtyBits, res.MeanTavgAccesses, 8 /* 8 parity stripes x 1 pair */)
	ratio := res.MeanAccessesToFailure / analytic
	if ratio < 0.05 || ratio > 20 {
		t.Errorf("measured %.0f vs analytic %.0f (ratio %.2f) out of range",
			res.MeanAccessesToFailure, analytic, ratio)
	}
}

func TestAnalyticHelpers(t *testing.T) {
	if got := AnalyticParityMTTFAccesses(1e-6, 1e4); got != 1e2 {
		t.Errorf("parity analytic = %v", got)
	}
	// Doubling domains doubles the double-fault MTTF.
	a := AnalyticDoubleFaultMTTFAccesses(1e-6, 1e4, 100, 8)
	b := AnalyticDoubleFaultMTTFAccesses(1e-6, 1e4, 100, 16)
	if b/a < 1.99 || b/a > 2.01 {
		t.Errorf("domain scaling = %v", b/a)
	}
}

// TestMeasuredLethality: the measured per-fault lethality under parity
// must be a sane probability, and CPPC's must be far lower (it corrects
// most strikes).
func TestMeasuredLethality(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo lifetimes")
	}
	const lambda = 2e-7
	par := monteCarlo(t, parityFactory(), lambda, 10, 120_000, 51)
	cp := monteCarlo(t, cppcFactory(core.DefaultL1Config()), lambda, 10, 120_000, 51)
	pl, cl := par.MeasuredLethality(), cp.MeasuredLethality()
	if pl <= 0 || pl > 1 {
		t.Fatalf("parity lethality %.3f out of range (%+v)", pl, par)
	}
	if cl >= pl {
		t.Errorf("CPPC lethality %.3f not below parity %.3f", cl, pl)
	}
}
