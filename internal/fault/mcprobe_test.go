package fault

import (
	"fmt"
	"testing"

	"cppc/internal/core"
)

// TestMCSeparation prints the lifetime separation between parity and
// CPPC at a few accelerated rates (informational; assertions live in the
// MonteCarlo tests).
func TestMCSeparation(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo lifetimes")
	}
	for _, lambda := range []float64{2e-7, 5e-8} {
		par := monteCarlo(t, parityFactory(), lambda, 8, 300_000, 41)
		cp := monteCarlo(t, cppcFactory(core.DefaultL1Config()), lambda, 8, 300_000, 41)
		t.Log(fmt.Sprintf("lambda=%.0e parity: mean=%.0f cens=%d DUE=%d SDC=%d | cppc: mean=%.0f cens=%d DUE=%d SDC=%d",
			lambda, par.MeanAccessesToFailure, par.Censored, par.DUEs, par.SDCs,
			cp.MeanAccessesToFailure, cp.Censored, cp.DUEs, cp.SDCs))
	}
}
