package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"nektarg/internal/insitu"
	"nektarg/internal/monitor"
)

// cycleOpts configures one cycle: a fresh build driven through the
// workload's fixed periods by one closed-loop caller.
type cycleOpts struct {
	planes planes
	// traced records benchmark spans and per-period telemetry deltas.
	traced bool
	// parallel is passed to Metasolver.SetParallelism (0 keeps the defaults).
	parallel int
	// setupOnly stops after the set-up period.
	setupOnly bool
}

// cycleResult is everything one cycle measured.
type cycleResult struct {
	setup   float64   // s: load, Build, plane wiring and the first period
	periods []float64 // ms per timed period (period 2 onward), 1D exchange excluded

	// Growth over the timed window.
	cpu                 time.Duration
	allocs, allocBytes  uint64
	gcCycles, gcPauseNs uint64
	heapLive            uint64 // bytes live after a forced GC at the window's end

	checkpoints []float64 // ms per durable checkpoint write
	ckptBytes   []float64
	captureMs   float64   // mean meta.checkpoint.capture (traced)
	restores    []float64 // ms per Resume into a fresh build
	scrapes     *scraper

	fingerprint       string
	attempted, failed int
	errs              []string

	records     []periodRecord // timed periods (traced)
	insitu      insitu.Stats
	historyCost time.Duration
	historyN    int64
}

func (c *cycleResult) fail(format string, args ...any) {
	c.failed++
	if len(c.errs) < 8 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// bench is one benchmark run: a workload, its generated config and a private
// working directory.
type bench struct {
	w    *workload
	seed uint64 // drives the generated config and the scrape schedule
	cfg  []byte
	dir  string
	tr   *tracer // nil outside the traced cycles
	seq  int
}

const (
	// restoresPerCycle is how many restores every timed cycle makes.
	restoresPerCycle = 12
	// scrapesPerCycle is how many back-to-back scrapes a timed cycle makes,
	// spread over its timed periods, on a workload without the monitor plane.
	scrapesPerCycle = 120
	// dt1D is the 1D network step nektarg -with1d uses.
	dt1D = 5e-5
)

// cycle runs one cycle. A build or set-up failure aborts the run; a failed
// operation is counted and the cycle goes on where it can.
func (b *bench) cycle(o cycleOpts) (*cycleResult, error) {
	b.seq++
	dir := filepath.Join(b.dir, fmt.Sprintf("cycle%d", b.seq))
	defer os.RemoveAll(dir)
	tr := b.tr
	if !o.traced {
		tr = nil
	}
	res := &cycleResult{}
	// Every cycle, its window, and every checkpoint and restore start from
	// a collected heap, so garbage left by earlier work is not charged to
	// them.
	runtime.GC()
	t0 := time.Now()
	in, err := build(b.w, b.cfg, o.planes, dir)
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	in.meta.SetParallelism(o.parallel)
	b.period(in, o, res, tr, 1)
	res.setup = time.Since(t0).Seconds()
	if res.failed > 0 {
		in.close()
		return nil, fmt.Errorf("set-up period failed: %v", res.errs)
	}
	if o.setupOnly {
		if _, err := in.close(); err != nil {
			res.fail("%v", err)
		}
		return res, nil
	}

	// open is the observed workload's open-loop scraper; side collects the
	// scrapes a workload without planes makes between its timed periods.
	var open, side *scraper
	if in.mon != nil {
		open = startScraper(in.mon.Handler(), b.w.scrapeGap(), b.seed, tr)
		res.scrapes = open
	} else if !b.w.observed {
		h, err := b.sideMonitor(filepath.Join(dir, "side"), res)
		if err != nil {
			in.close()
			return nil, err
		}
		side = &scraper{h: h, tr: tr}
		res.scrapes = side
	}
	var prev telemetrySnap
	if tr != nil {
		prev = snapTelemetry(in.reg)
	}
	var between usage
	n := b.w.periods - 1
	runtime.GC()
	u0 := readUsage()
	for p := 2; p <= b.w.periods; p++ {
		rec, ok := b.period(in, o, res, tr, p)
		if !ok {
			break
		}
		if tr != nil {
			cur := snapTelemetry(in.reg)
			rec.diff(prev, cur, tr, rec.parents)
			prev = cur
			res.records = append(res.records, rec.periodRecord)
		}
		// Timed period i of n is followed by its share of the cycle's
		// restores, so they are spread evenly over the window.
		i := p - 2
		restores := (i+1)*restoresPerCycle/n - i*restoresPerCycle/n
		if side != nil || restores > 0 {
			between = between.add(b.between(in, res, tr, p, dir, restores, side))
			if tr != nil {
				prev = snapTelemetry(in.reg)
			}
		}
	}
	win := readUsage().sub(u0).sub(between)
	if open != nil {
		open.stop()
	}
	if side != nil {
		side.h, side.tr = nil, nil
	}
	res.cpu, res.allocs, res.allocBytes = win.cpu, win.allocs, win.allocBytes
	res.gcCycles, res.gcPauseNs = win.gcCycles, win.gcPauseNs
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	res.heapLive = m.HeapAlloc
	res.fingerprint = fingerprint(in.meta, in.tree)

	if scr := res.scrapes; scr != nil {
		res.attempted += len(scr.latency)
		for i := 0; i < scr.failed; i++ {
			res.fail("GET /metrics: non-200")
		}
	}
	if tr != nil {
		end := snapTelemetry(in.reg)
		if st := end.stages["metasolver/meta.checkpoint.capture"]; st.Count > 0 {
			res.captureMs = st.Total / float64(st.Count) * 1e3
		}
	}
	if in.hist != nil {
		res.historyCost, res.historyN = in.hist.SampleCost(), in.hist.Samples()
	}
	st, err := in.close()
	res.insitu = st
	if err != nil {
		res.fail("%v", err)
	}
	return res, nil
}

// tracedPeriod carries the span ids a period's telemetry deltas hang from.
type tracedPeriod struct {
	periodRecord
	parents map[string]int
}

// period drives one exchange period as a closed-loop caller: Advance(1), the
// 1D outlet exchange and, on observed, a durable checkpoint. The period's
// time is the wall time of Advance and the checkpoint. The 1D exchange is
// timed apart, as nektar1d.exchange_ms: its stepping would otherwise be most
// of an observed period and hide the planes. The correctness gate runs after.
func (b *bench) period(in *instance, o cycleOpts, res *cycleResult, tr *tracer, p int) (tracedPeriod, bool) {
	rec := tracedPeriod{parents: map[string]int{}}
	res.attempted++
	t := time.Now()
	root := tr.begin("period", "bench", -1, p)
	sp := tr.begin("Metasolver.Advance", "bench", root, p)
	err := in.meta.Advance(1)
	tr.end(sp)
	rec.parents["Metasolver.Advance"] = sp
	rec.advance = ms(time.Since(t))
	if err != nil {
		tr.end(root)
		res.fail("period %d: Advance: %v", p, err)
		return rec, false
	}
	if in.to1d != nil {
		t1 := time.Now()
		sp := tr.begin("OutletTo1D.Exchange", "bench", root, p)
		_, _, err := in.to1d.Exchange(dt1D)
		tr.end(sp)
		rec.parents["OutletTo1D.Exchange"] = sp
		rec.exchange1D = ms(time.Since(t1))
		if err != nil {
			tr.end(root)
			res.fail("period %d: 1D exchange: %v", p, err)
			return rec, false
		}
	}
	rec.wall = rec.advance
	if b.w.observed && o.planes.checkpoint {
		tc := time.Now()
		rec.parents["Checkpointer.Checkpoint"] = b.checkpoint(in, res, tr, root, p)
		rec.wall += ms(time.Since(tc))
	}
	tr.end(root)
	if p > 1 {
		res.periods = append(res.periods, rec.wall)
	}
	if err := checkPeriod(b.w, in); err != nil {
		res.fail("period %d: %v", p, err)
		return rec, false
	}
	return rec, true
}

// sideMonitor builds the monitor a workload without planes is scraped
// through. Planes are off in its window, so the live build has no registry to
// serve; this second build, with telemetry on and one untimed period run,
// fills one with the series a telemetry-on run of the workload exposes.
func (b *bench) sideMonitor(dir string, res *cycleResult) (http.Handler, error) {
	in, err := build(b.w, b.cfg, planes{telemetry: true}, dir)
	if err != nil {
		return nil, fmt.Errorf("side build: %w", err)
	}
	res.attempted++
	if err := in.meta.Advance(1); err != nil {
		res.fail("side period: Advance: %v", err)
	} else if err := checkPeriod(b.w, in); err != nil {
		res.fail("side period: %v", err)
	}
	return monitor.New(in.reg, monitor.Options{FlightDir: filepath.Join(dir, "flight")}).Handler(), nil
}

// between makes the untimed operations that follow timed period p: on a
// workload without planes, a durable checkpoint of the live state and a burst
// of back-to-back scrapes of the side monitor; on every workload, the given
// number of restores of the newest checkpoint. Spread over the window, they
// sample the host's disk and CPU across the whole run instead of in one burst
// after it. Each scrape starts from a collected heap: otherwise about half of
// a burst pays for the GC cycle the burst's own garbage triggers, and the
// median falls between the two modes. It returns the operations' cost, which
// the window's CPU and heap figures leave out; the next period starts from a
// collected heap.
func (b *bench) between(in *instance, res *cycleResult, tr *tracer, p int, dir string, restores int, side *scraper) usage {
	u0 := readUsage()
	if side != nil {
		runtime.GC()
		b.checkpoint(in, res, tr, -1, p)
		n := b.w.periods - 1
		for i := 0; i < (scrapesPerCycle+n-1)/n; i++ {
			runtime.GC()
			side.scrape(time.Now())
		}
	}
	if restores > 0 && len(res.checkpoints) > 0 {
		// The newest checkpoint holds the live state.
		live := fingerprint(in.meta, in.tree)
		for i := 0; i < restores; i++ {
			b.restore(res, tr, dir, live, p)
		}
	}
	runtime.GC()
	return readUsage().sub(u0)
}

// checkpoint makes one durable Checkpointer write and returns its span id.
func (b *bench) checkpoint(in *instance, res *cycleResult, tr *tracer, parent, p int) int {
	res.attempted++
	t := time.Now()
	sp := tr.begin("Checkpointer.Checkpoint", "bench", parent, p)
	path, err := in.ck.Checkpoint()
	tr.end(sp)
	res.checkpoints = append(res.checkpoints, ms(time.Since(t)))
	if err != nil {
		res.fail("checkpoint: %v", err)
		return sp
	}
	if tr != nil {
		if fi, err := os.Stat(path); err == nil {
			res.ckptBytes = append(res.ckptBytes, float64(fi.Size()))
		}
	}
	return sp
}

// restore resumes the cycle's newest checkpoint into a fresh build. A
// resumed state whose fingerprint differs from live, the live state's at
// that checkpoint, is a failed restore.
func (b *bench) restore(res *cycleResult, tr *tracer, dir, live string, p int) {
	res.attempted++
	fresh, err := build(b.w, b.cfg, planes{}, dir)
	if err != nil {
		res.fail("restore: build: %v", err)
		return
	}
	defer fresh.close()
	runtime.GC()
	t := time.Now()
	sp := tr.begin("Checkpointer.Resume", "bench", -1, p)
	_, err = fresh.ck.Resume()
	tr.end(sp)
	res.restores = append(res.restores, ms(time.Since(t)))
	if err != nil {
		res.fail("restore: %v", err)
	} else if fp := fingerprint(fresh.meta, fresh.tree); fp != live {
		res.fail("restore: resumed %s, live %s", fp, live)
	}
}
