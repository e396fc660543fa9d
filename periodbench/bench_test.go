package main

import "testing"

// shortCycle runs a cycle of the named workload cut to a few periods and
// fails the test if any operation failed.
func shortCycle(t *testing.T, name string, seed int64, o cycleOpts) *cycleResult {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	short := *w
	short.periods = 3
	cfg, err := short.generate("..", seed)
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{w: &short, seed: uint64(seed), cfg: cfg, dir: t.TempDir(), tr: newTracer()}
	c, err := b.cycle(o)
	if err != nil {
		t.Fatal(err)
	}
	if c.failed > 0 {
		t.Fatalf("%d of %d operations failed: %v", c.failed, c.attempted, c.errs)
	}
	return c
}

func shortCycleFingerprint(t *testing.T, seed int64) string {
	return shortCycle(t, "coupled", seed, cycleOpts{}).fingerprint
}

func TestOneSeedOneFingerprint(t *testing.T) {
	a, b := shortCycleFingerprint(t, 7), shortCycleFingerprint(t, 7)
	if a != b {
		t.Fatalf("seed 7 gave two fingerprints:\n%s\n%s", a, b)
	}
}

func TestTwoSeedsTwoFingerprints(t *testing.T) {
	a, b := shortCycleFingerprint(t, 7), shortCycleFingerprint(t, 8)
	if a == b {
		t.Fatalf("seeds 7 and 8 gave the same fingerprint %s", a)
	}
}

// TestObservedCycle drives the observed workload's concurrent parts — the
// scraper, the in-situ observer, per-period checkpoints and the restore
// check — through a traced cycle.
func TestObservedCycle(t *testing.T) {
	c := shortCycle(t, "observed", 7, cycleOpts{planes: allPlanes, traced: true})
	if len(c.records) != 2 || len(c.checkpoints) != 3 || len(c.restores) != restoresPerCycle {
		t.Fatalf("got %d period records, %d checkpoints, %d restores",
			len(c.records), len(c.checkpoints), len(c.restores))
	}
	if m := layerMetrics(c); m["nektar1d.exchange_ms"].Value <= 0 || m["core.atomistic_ms"].Value <= 0 {
		t.Fatalf("traced layers missing: %+v", m)
	}
}
