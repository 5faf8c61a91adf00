package main

import "fmt"

// layerCatalog is every per-layer metric a traced run prints, in print
// order, with its unit and the direction an optimisation should move it
// (less work and time; more hits and corrections). BENCHMARK.json's
// per_layer list is this catalog. A workload reports zero for layers it
// does not run: uniproc runs no fault campaign and no service, and the
// reverse.
var layerCatalog = []struct{ name, unit, better string }{
	// uniproc: trace → cpu → protect (L1 port, L1→L2 hop) → scheme → memory.
	{"trace.self_s", "s", "lower"},
	{"trace.instrs", "count", "lower"},
	{"cpu.self_s", "s", "lower"},
	{"cpu.sim_cycles", "count", "lower"},
	{"cpu.warmup_share", "ratio", "lower"},
	{"protect.l1.self_s", "s", "lower"},
	{"protect.l1.loads", "count", "lower"},
	{"protect.l1.stores", "count", "lower"},
	{"protect.l1.plans", "count", "lower"},
	{"protect.l2.self_s", "s", "lower"},
	{"protect.l2.fetches", "count", "lower"},
	{"protect.l2.writebacks", "count", "lower"},
	{"scheme.l1.parity-1d.self_s", "s", "lower"},
	{"scheme.l1.cppc.self_s", "s", "lower"},
	{"scheme.l1.secded.self_s", "s", "lower"},
	{"scheme.l1.parity-2d.self_s", "s", "lower"},
	{"scheme.l1.calls", "count", "lower"},
	{"scheme.l2.parity-1d.self_s", "s", "lower"},
	{"scheme.l2.cppc.self_s", "s", "lower"},
	{"scheme.l2.secded.self_s", "s", "lower"},
	{"scheme.l2.parity-2d.self_s", "s", "lower"},
	{"scheme.l2.calls", "count", "lower"},
	{"memory.self_s", "s", "lower"},
	{"memory.fetches", "count", "lower"},
	{"memory.writebacks", "count", "lower"},
	{"share.trace", "ratio", "lower"},
	{"share.cpu", "ratio", "lower"},
	{"share.protect.l1", "ratio", "lower"},
	{"share.protect.l2", "ratio", "lower"},
	{"share.scheme.l1", "ratio", "lower"},
	{"share.scheme.l2", "ratio", "lower"},
	{"share.memory", "ratio", "lower"},
	// campaign: the fault campaign shell (controller and cache included)
	// and the schemes under it.
	{"fault.self_s", "s", "lower"},
	{"fault.mc.self_s", "s", "lower"},
	{"fault.fieldmc.self_s", "s", "lower"},
	{"fault.trials", "count", "lower"},
	{"fault.corrected_ratio", "ratio", "higher"},
	{"scheme.campaign.parity-1d.self_s", "s", "lower"},
	{"scheme.campaign.parity-2d.self_s", "s", "lower"},
	{"scheme.campaign.secded.self_s", "s", "lower"},
	{"scheme.campaign.cppc.self_s", "s", "lower"},
	{"scheme.campaign.cppc-noshift.self_s", "s", "lower"},
	{"scheme.campaign.cppc-2pair.self_s", "s", "lower"},
	{"scheme.campaign.calls", "count", "lower"},
	{"share.fault", "ratio", "lower"},
	{"share.scheme.campaign", "ratio", "lower"},
	// daemon: HTTP → service scheduler → cellstore tiers → cell execution.
	{"http.self_s", "s", "lower"},
	{"http.requests", "count", "lower"},
	{"service.queue_wait_s", "s", "lower"},
	{"service.exec_s", "s", "lower"},
	{"service.job_hit_ratio", "ratio", "higher"},
	{"service.cell_exec_s", "s", "lower"},
	{"service.cells_executed", "count", "lower"},
	{"cellstore.memory.get_s", "s", "lower"},
	{"cellstore.memory.gets", "count", "lower"},
	{"cellstore.memory.hits", "count", "higher"},
	{"cellstore.memory.put_s", "s", "lower"},
	{"cellstore.memory.puts", "count", "lower"},
	{"cellstore.disk.get_s", "s", "lower"},
	{"cellstore.disk.gets", "count", "lower"},
	{"cellstore.disk.hits", "count", "higher"},
	{"cellstore.disk.put_s", "s", "lower"},
	{"cellstore.disk.puts", "count", "lower"},
	{"cellstore.hit_ratio", "ratio", "higher"},
	{"job.simulate.p50_ms", "ms", "lower"},
	{"job.multicore.p50_ms", "ms", "lower"},
	{"job.l3.p50_ms", "ms", "lower"},
	{"job.fieldmc.p50_ms", "ms", "lower"},
	{"job.montecarlo.p50_ms", "ms", "lower"},
	// every workload: traced wall time over untraced wall time.
	{"trace_overhead", "ratio", "lower"},
}

// layerSums averages per-layer metrics over traced passes.
type layerSums struct {
	n   int
	sum map[string]float64
}

func (s *layerSums) add(m map[string]float64) {
	if s.sum == nil {
		s.sum = map[string]float64{}
	}
	s.n++
	for k, v := range m {
		s.sum[k] += v
	}
}

// mean returns the per-pass average of every metric added.
func (s *layerSums) mean() map[string]float64 {
	out := make(map[string]float64, len(s.sum))
	for k, v := range s.sum {
		out[k] = v / float64(s.n)
	}
	return out
}

// catalogMetrics lays a workload's per-layer values out in catalog
// order, zero where the workload has no such layer. A value whose name
// is not in the catalog is an error in the benchmark itself.
func catalogMetrics(vals map[string]float64) ([]metric, error) {
	known := make(map[string]bool, len(layerCatalog))
	out := make([]metric, 0, len(layerCatalog))
	for _, c := range layerCatalog {
		known[c.name] = true
		out = append(out, metric{c.name, vals[c.name], c.unit})
	}
	for k := range vals {
		if !known[k] {
			return nil, fmt.Errorf("per-layer metric %q is not in the catalog", k)
		}
	}
	return out, nil
}
