// Periodbench times whole coupled exchange periods of NεκTαrG configs and
// splits them across the repository's layers.
//
// Each run builds one workload from a shipped config and drives
// Metasolver.Advance(1) periods as a closed loop with one caller, in cycles:
// a fresh build, a set-up period, then the workload's fixed number of timed
// periods. Every cycle of every commit therefore times the same periods. An
// untraced run (-trace 0) prints the end-to-end metrics; a traced run
// (-trace 1) records spans around every public call, splits each period
// across the telemetry stages, and prints the per-layer metrics. The last
// line of standard output is one JSON object with the result.
//
// Usage, from the repository root:
//
//	bash periodbench/run.sh --workload coupled --seed 1 --seconds 30 --trace 0
//
// See periodbench/README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: coupled, ns_bound or observed")
	seed := flag.Int64("seed", 1, "workload seed: overrides every DPD region's seed")
	seconds := flag.Int("seconds", 30, "measurement budget of an untraced run, in seconds")
	traced := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	root := flag.String("root", ".", "repository root holding configs/")
	workdir := flag.String("workdir", ".bench_build/periodbench", "directory for checkpoints, flight dumps and traces")
	flag.Parse()

	if err := run(*name, *seed, *seconds, *traced == 1, *root, *workdir); err != nil {
		fmt.Fprintln(os.Stderr, "periodbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, traced bool, root, workdir string) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	cfg, err := w.generate(root, seed)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(workdir, w.name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	b := &bench{w: w, seed: uint64(seed), cfg: cfg, dir: dir}

	fmt.Printf("workload %s seed %d gomaxprocs %d\n", w.name, seed, runtime.GOMAXPROCS(0))
	var res *result
	if traced {
		b.tr = newTracer()
		res, err = b.tracedRun()
		if err == nil {
			path := filepath.Join(workdir, fmt.Sprintf("trace-%s-seed%d.json", w.name, seed))
			if err = b.tr.writeChrome(path); err == nil {
				fmt.Println("chrome trace:", path)
			}
		}
	} else {
		res, err = b.untracedRun(time.Duration(seconds) * time.Second)
	}
	if err != nil {
		return err
	}
	names := make([]string, 0, len(res.Metrics))
	for k, m := range res.Metrics {
		names = append(names, k)
		// A run whose operations failed can leave a metric without samples;
		// JSON has no NaN, and such a run is already marked incorrect.
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			res.Metrics[k] = metric{0, m.Unit}
		}
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-34s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	fmt.Printf("  %-34s %14.6g (%d failed of %d attempted)\n", "error_rate",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// tally folds the cycles' operation counts and fingerprints into the result.
// Every cycle of a run replays the same inputs, so their final states must be
// bit-identical whatever the planes, tracing or worker count; a differing
// fingerprint is a failure.
func tally(res *result, cycles []*cycleResult) {
	var want string
	for i, c := range cycles {
		res.Attempted += c.attempted
		res.Failed += c.failed
		for _, e := range c.errs {
			fmt.Fprintln(os.Stderr, "failure:", e)
		}
		if c.fingerprint == "" {
			continue
		}
		if want == "" {
			want = c.fingerprint
			fmt.Println("fingerprint:", want)
			continue
		}
		res.Attempted++
		if c.fingerprint != want {
			res.Failed++
			fmt.Fprintf(os.Stderr, "failure: cycle %d fingerprint %s, want %s\n", i+1, c.fingerprint, want)
		}
	}
	res.Correct = res.Failed == 0
}

// untracedRun runs the budget's cycles, then set-up-only cycles until the
// workload's number of set-ups is reached, and reports the end-to-end
// metrics.
func (b *bench) untracedRun(budget time.Duration) (*result, error) {
	pl := planes{}
	if b.w.observed {
		pl = allPlanes
	}
	n := max(1, int(math.Round(budget.Seconds()/b.w.cycleSeconds)))
	var all []*cycleResult
	var setups []float64
	for len(all) < max(n, b.w.setups) {
		c, err := b.cycle(cycleOpts{planes: pl, setupOnly: len(all) >= n})
		if err != nil {
			return nil, err
		}
		all = append(all, c)
		setups = append(setups, c.setup)
	}
	cycles := all[:n]

	var periods, ckpts, restores, scrapes, heap []float64
	var cpu time.Duration
	var allocs, allocBytes uint64
	for _, c := range cycles {
		periods = append(periods, c.periods...)
		ckpts = append(ckpts, c.checkpoints...)
		restores = append(restores, c.restores...)
		if c.scrapes != nil {
			scrapes = append(scrapes, c.scrapes.latency...)
		}
		heap = append(heap, float64(c.heapLive))
		cpu += c.cpu
		allocs += c.allocs
		allocBytes += c.allocBytes
	}
	np := float64(len(periods))
	res := &result{Metrics: map[string]metric{
		// The mean, not the median: on ns_bound the period shrinks ~16x
		// across the window, so the median is the time of the few periods
		// near the middle rank and carries their noise. Every commit times
		// the same periods, so the mean is the same quantity on each.
		"period_ms":           {mean(periods), "ms"},
		"setup_s":             {median(setups), "s"},
		"cpu_ms_per_period":   {ms(cpu) / np, "ms"},
		"allocs_per_period":   {float64(allocs) / np, "count"},
		"alloc_kb_per_period": {float64(allocBytes) / 1024 / np, "KiB"},
		"heap_live_mb":        {median(heap) / (1 << 20), "MiB"},
		"checkpoint_ms":       {median(ckpts), "ms"},
		"restore_ms":          {median(restores), "ms"},
		"scrape_ms_p50":       {quantile(scrapes, 0.5), "ms"},
		"scrape_ms_p90":       {quantile(scrapes, 0.9), "ms"},
	}}
	tally(res, all)
	fmt.Printf("cycles %d, timed periods %d, set-ups %d, checkpoints %d, restores %d, scrapes %d\n",
		len(cycles), len(periods), len(setups), len(ckpts), len(restores), len(scrapes))
	fmt.Printf("period_ms median %.6g ms (n=%d)\n", median(periods), len(periods))
	if len(periods) >= 20 {
		q := 1 - 10/float64(len(periods))
		fmt.Printf("period_ms p%.3g %.6g ms\n", 100*q, quantile(periods, q))
	}
	return res, nil
}
