package main

import (
	"fmt"
	"strings"
)

// patchNames are the continuum patches every workload's config declares.
var patchNames = []string{"feed", "distal"}

// tracedRun measures the per-layer metrics. It runs an untraced reference
// cycle and a traced cycle of the same periods (their difference is the
// tracing overhead), then the workload's extra cycles: the single-worker
// baseline on coupled, the one-plane-off ablations on observed.
func (b *bench) tracedRun() (*result, error) {
	pl := planes{}
	if b.w.observed {
		pl = allPlanes
	}
	ref, err := b.cycle(cycleOpts{planes: pl})
	if err != nil {
		return nil, err
	}
	tpl := pl
	tpl.telemetry = true
	tc, err := b.cycle(cycleOpts{planes: tpl, traced: true})
	if err != nil {
		return nil, err
	}
	cycles := []*cycleResult{ref, tc}
	m := layerMetrics(tc)
	refMs := mean(ref.periods)
	m["telemetry.overhead_pct"] = metric{100 * (mean(tc.periods) - refMs) / refMs, "%"}
	n := float64(len(ref.periods))
	m["gc.cycles_per_period"] = metric{float64(ref.gcCycles) / n, "count"}
	m["gc.pause_ms_per_period"] = metric{float64(ref.gcPauseNs) / 1e6 / n, "ms"}

	m["work.parallel_speedup"] = metric{0, "x"}
	if b.w.name == "coupled" {
		// Trajectories are bit-identical across worker counts, so tally
		// fails the run if the single-worker fingerprint differs.
		one, err := b.cycle(cycleOpts{planes: pl, parallel: 1})
		if err != nil {
			return nil, err
		}
		cycles = append(cycles, one)
		m["work.parallel_speedup"] = metric{mean(one.periods) / refMs, "x"}
	}
	for _, p := range planeNames {
		m["planes."+p+"_ms"] = metric{0, "ms"}
		if !b.w.observed {
			continue
		}
		c, err := b.cycle(cycleOpts{planes: pl.without(p)})
		if err != nil {
			return nil, err
		}
		cycles = append(cycles, c)
		m["planes."+p+"_ms"] = metric{refMs - mean(c.periods), "ms"}
	}

	res := &result{Metrics: m}
	tally(res, cycles)
	b.acceptance(m, ref)
	return res, nil
}

// acceptance prints whether each workload loads the layer it exists for.
func (b *bench) acceptance(m map[string]metric, ref *cycleResult) {
	v := func(k string) float64 { return m[k].Value }
	var ok bool
	var what string
	switch b.w.name {
	case "coupled":
		ok = v("core.atomistic_ms") >= 0.9*v("core.advance_ms")
		what = fmt.Sprintf("core.atomistic_ms %.4g >= 90%% of core.advance_ms %.4g", v("core.atomistic_ms"), v("core.advance_ms"))
	case "ns_bound":
		ok = v("nektar3d.step_ms.distal") > v("core.atomistic_ms") && v("core.wait_ms") > 0
		what = fmt.Sprintf("nektar3d.step_ms.distal %.4g > core.atomistic_ms %.4g, core.wait_ms %.4g > 0",
			v("nektar3d.step_ms.distal"), v("core.atomistic_ms"), v("core.wait_ms"))
	case "observed":
		period, ck := mean(ref.periods), median(ref.checkpoints)
		ok = ck+v("core.planes_ms") >= 0.1*period
		what = fmt.Sprintf("checkpoint_ms %.4g + core.planes_ms %.4g >= 10%% of period_ms %.4g",
			ck, v("core.planes_ms"), period)
	}
	verdict := "holds"
	if !ok {
		verdict = "DOES NOT HOLD"
	}
	fmt.Printf("layer check (%s): %s\n", verdict, what)
}

// layerMetrics derives the per-layer metrics from a traced cycle. Per-period
// quantities are medians over the timed periods; counts that the program
// makes are totals or means over the cycle's fixed periods, so they repeat
// exactly.
func layerMetrics(c *cycleResult) map[string]metric {
	recs := c.records
	med := func(f func(r *periodRecord) float64) float64 {
		xs := make([]float64, len(recs))
		for i := range recs {
			xs[i] = f(&recs[i])
		}
		return median(xs)
	}
	// sum adds a stage over every track whose name starts with prefix.
	sum := func(r *periodRecord, prefix, stage string) float64 {
		var t float64
		for k, d := range r.stages {
			track, name, _ := strings.Cut(k, "/")
			if name == stage && strings.HasPrefix(track, prefix) {
				t += d.total * 1e3
			}
		}
		return t
	}
	gaugeSum := func(r *periodRecord, prefix, gauge string) float64 {
		var t float64
		for k, g := range r.gaugeSum {
			track, name, _ := strings.Cut(k, "/")
			if name == gauge && strings.HasPrefix(track, prefix) {
				t += g
			}
		}
		return t
	}
	avg := func(f func(r *periodRecord) float64) float64 {
		var t float64
		for i := range recs {
			t += f(&recs[i])
		}
		return t / float64(len(recs))
	}
	m := map[string]metric{
		"core.advance_ms":   {med(func(r *periodRecord) float64 { return r.advance }), "ms"},
		"core.exchange_ms":  {med(func(r *periodRecord) float64 { return r.stageMs("metasolver/meta.exchange") }), "ms"},
		"core.atomistic_ms": {med(func(r *periodRecord) float64 { return r.stageMs("metasolver/meta.atomistic") }), "ms"},
		"core.wait_ms":      {med(func(r *periodRecord) float64 { return r.stageMs("metasolver/meta.wait") }), "ms"},
		"core.planes_ms": {med(func(r *periodRecord) float64 {
			return r.advance - r.stageMs("metasolver/meta.step")
		}), "ms"},
		"core.ns_slack_frac": {med(func(r *periodRecord) float64 {
			var busiest float64
			for _, p := range patchNames {
				busiest = max(busiest, r.stageMs("patch:"+p+"/ns.step"))
			}
			return 1 - busiest/r.advance
		}), "fraction"},
		"dpd.forces_ms": {med(func(r *periodRecord) float64 { return sum(r, "dpd:", "dpd.forces") }), "ms"},
		"dpd.integrate_ms": {med(func(r *periodRecord) float64 {
			return sum(r, "dpd:", "dpd.step") - sum(r, "dpd:", "dpd.forces")
		}), "ms"},
		"dpd.step_us": {med(func(r *periodRecord) float64 {
			var t float64
			var n int64
			for k, d := range r.stages {
				if strings.HasPrefix(k, "dpd:") && strings.HasSuffix(k, "/dpd.step") {
					t += d.total
					n += d.count
				}
			}
			return t / float64(n) * 1e6
		}), "us"},
		"dpd.inserted":          {avg(func(r *periodRecord) float64 { return gaugeSum(r, "dpd:", "dpd.inserted") }), "count"},
		"dpd.deleted":           {avg(func(r *periodRecord) float64 { return gaugeSum(r, "dpd:", "dpd.deleted") }), "count"},
		"nektar1d.exchange_ms":  {med(func(r *periodRecord) float64 { return r.exchange1D }), "ms"},
		"checkpoint.capture_ms": {c.captureMs, "ms"},
		"checkpoint.bytes":      {median(c.ckptBytes), "bytes"},
		"history.sample_us":     {0, "us"},
		"insitu.published":      {float64(c.insitu.Published), "count"},
		"insitu.dropped":        {float64(c.insitu.Dropped), "count"},
	}
	var particles float64
	if len(recs) > 0 {
		for k, v := range recs[len(recs)-1].gaugeLast {
			if strings.HasPrefix(k, "dpd:") && strings.HasSuffix(k, "/dpd.particles") {
				particles += v
			}
		}
	}
	m["dpd.particles"] = metric{particles, "count"}
	for _, p := range patchNames {
		track := "patch:" + p + "/"
		for _, st := range []string{"step", "pressure", "helmholtz", "advection"} {
			key := track + "ns." + st
			m["nektar3d."+st+"_ms."+p] = metric{med(func(r *periodRecord) float64 { return r.stageMs(key) }), "ms"}
		}
		m["nektar3d.busy_frac."+p] = metric{med(func(r *periodRecord) float64 {
			return r.stageMs(track+"ns.step") / r.advance
		}), "fraction"}
		m["linalg.pressure_iters."+p] = metric{avg(func(r *periodRecord) float64 { return r.gaugeSum[track+"ns.pressure.iters"] }), "count"}
		m["linalg.helmholtz_iters."+p] = metric{avg(func(r *periodRecord) float64 { return r.gaugeSum[track+"ns.helmholtz.iters"] }), "count"}
	}
	var scrapeBytes, late float64
	if s := c.scrapes; s != nil {
		scrapeBytes, late = median(s.bytes), median(s.late)
	}
	m["monitor.scrape_bytes"] = metric{scrapeBytes, "bytes"}
	m["monitor.scraper_late_ms"] = metric{late, "ms"}
	if c.historyN > 0 {
		m["history.sample_us"] = metric{float64(c.historyCost) / 1e3 / float64(c.historyN), "us"}
	}
	return m
}
