package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"nektarg/internal/audit"
	"nektarg/internal/checkpoint"
	"nektarg/internal/config"
	"nektarg/internal/core"
	"nektarg/internal/history"
	"nektarg/internal/insitu"
	"nektarg/internal/monitor"
	"nektarg/internal/nektar1d"
	"nektarg/internal/telemetry"
)

// workload is one benchmark input: a shipped config, the edits that turn it
// into this workload, how many exchange periods one cycle runs, and the
// correctness bands its periods must stay inside.
type workload struct {
	name string
	// base is the shipped config the workload is derived from, relative to
	// the repository root.
	base string
	edit func(*config.Config)
	// periods is the fixed number of exchange periods of one cycle, the
	// set-up period included. Every cycle of every commit times the same
	// periods, because the per-period load depends on the period index (the
	// DPD box fills, the ns_bound flow develops from rest).
	periods int
	// cycleSeconds is the nominal length of one cycle at the commit that
	// defined the benchmark. A run makes round(--seconds / cycleSeconds)
	// cycles, so a faster or slower commit times exactly the same periods.
	cycleSeconds float64
	// setups is how many set-ups a run measures; setup_s is their median.
	// A cheap set-up needs more samples to be steady.
	setups int
	// with1D attaches the fractal 1D tree to the distal x1 outlet, as
	// nektarg -with1d does.
	with1D bool
	// observed turns every plane on and checkpoints every period.
	observed bool
	// maxDiv bounds every patch's MaxDivergence after every period.
	maxDiv float64
	// minParticles/maxParticles bound the DPD particle count of every region.
	minParticles, maxParticles int
}

var workloads = []*workload{
	{
		name:    "coupled",
		base:    "configs/coupled.json",
		edit:    func(c *config.Config) { c.Insitu = nil },
		periods: 14, cycleSeconds: 10, setups: 9,
		maxDiv: 1e-15, minParticles: 2000, maxParticles: 4800,
	},
	{
		name: "ns_bound",
		base: "configs/skewed.json",
		edit: func(c *config.Config) {
			for i := range c.Patches {
				c.Patches[i].Initial = "rest"
			}
			for i := range c.Regions {
				c.Regions[i].Box = config.Vec{4, 4, 4}
				c.Regions[i].Particles = 0 // rho * volume
			}
		},
		periods: 40, cycleSeconds: 15, setups: 15,
		maxDiv: 0.2, minParticles: 120, maxParticles: 480,
	},
	{
		name: "observed",
		base: "configs/coupled.json",
		edit: func(c *config.Config) {
			c.Exchange = config.Exchange{NSSteps: 2, DPDPerNS: 5}
		},
		periods: 80, cycleSeconds: 9, setups: 40,
		with1D:   true,
		observed: true,
		maxDiv:   1e-15, minParticles: 2000, maxParticles: 4800,
	},
}

// scrapeGap is the mean gap of the open-loop /metrics scraper: one scrape per
// exchange period, at the workload's nominal loop length per period.
func (w *workload) scrapeGap() time.Duration {
	return time.Duration(w.cycleSeconds / float64(w.periods) * float64(time.Second))
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// regionSeed maps the benchmark seed to a nonzero DPD seed (config.Build
// treats 0 as "keep the default"), so every benchmark seed gives distinct
// particle fills and platelet placements.
func regionSeed(seed int64) uint64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// generate derives the workload's config from its shipped base and the seed.
// The seed overrides every region's DPD seed, which also drives its platelet
// seeding. The program only ever sees the returned JSON.
func (w *workload) generate(root string, seed int64) ([]byte, error) {
	f, err := os.Open(filepath.Join(root, w.base))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	cfg, err := config.Load(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.base, err)
	}
	w.edit(cfg)
	for i := range cfg.Regions {
		cfg.Regions[i].Seed = regionSeed(seed)
	}
	return json.Marshal(cfg)
}

// planes selects the observability planes wired into one build. The observed
// workload turns all of them on; its traced run turns them off one at a time.
type planes struct {
	telemetry, monitor, audit, history, insitu, checkpoint bool
}

var allPlanes = planes{true, true, true, true, true, true}

// planeNames lists the ablatable planes in report order.
var planeNames = []string{"telemetry", "monitor", "audit", "history", "insitu", "checkpoint"}

func (p planes) without(name string) planes {
	switch name {
	case "telemetry":
		p.telemetry = false
	case "monitor":
		p.monitor = false
	case "audit":
		p.audit = false
	case "history":
		p.history = false
	case "insitu":
		p.insitu = false
	case "checkpoint":
		p.checkpoint = false
	}
	return p
}

// instance is one built simulation with its planes.
type instance struct {
	meta     *core.Metasolver
	tree     *nektar1d.Network
	to1d     *core.OutletTo1D
	networks map[string]*nektar1d.Network
	reg      *telemetry.Registry
	mon      *monitor.Monitor
	ledger   *audit.Ledger
	hist     *history.Plane
	queue    *insitu.Queue
	obsDone  chan struct{}
	ck       *core.Checkpointer
}

// build loads the generated config, builds it and wires the planes. dir
// receives checkpoints and flight dumps.
func build(w *workload, cfgJSON []byte, pl planes, dir string) (*instance, error) {
	cfg, err := config.Load(bytes.NewReader(cfgJSON))
	if err != nil {
		return nil, err
	}
	b, err := cfg.Build()
	if err != nil {
		return nil, err
	}
	in := &instance{meta: b.Meta, networks: map[string]*nektar1d.Network{}}
	var inlet *nektar1d.Inlet
	if w.with1D {
		spec := nektar1d.DefaultTreeSpec(3)
		spec.NodesPerSegment = 21
		if in.tree, inlet, err = nektar1d.BuildFractalTree(spec); err != nil {
			return nil, err
		}
		distal, ok := b.Patches["distal"]
		if !ok {
			return nil, fmt.Errorf("%s: no distal patch for the 1D tree", w.base)
		}
		if in.to1d, err = core.NewOutletTo1D(distal, "x1", in.tree, inlet, 6); err != nil {
			return nil, err
		}
		in.networks["tree"] = in.tree
	}
	if pl.telemetry {
		in.reg = telemetry.NewRegistry()
		in.meta.EnableTelemetry(in.reg)
		if in.tree != nil {
			in.tree.Rec = in.reg.NewRecorder("1d:tree")
		}
	}
	if pl.monitor {
		in.mon = monitor.New(in.reg, monitor.Options{FlightDir: filepath.Join(dir, "flight")})
		in.meta.EnableMonitoring(in.mon.Health())
		if in.tree != nil {
			in.tree.Watch = in.mon.Health().Watch("1d:tree")
		}
	}
	if pl.audit {
		in.ledger = audit.New(audit.Options{
			Rec:   in.reg.NewRecorder("audit"),
			Watch: in.mon.Health().Watch("audit"),
		})
		in.meta.EnableAudit(in.ledger)
		if in.to1d != nil {
			in.to1d.Aud = in.ledger
		}
		if in.mon != nil {
			in.mon.SetAuditSource(in.ledger)
			in.mon.AddStatSource(in.ledger.Stats)
		}
	}
	if pl.history {
		in.hist = history.New(history.Options{Stride: 1})
		in.meta.EnableHistory(in.hist)
		if in.mon != nil {
			in.mon.SetHistorySource(in.hist)
			in.mon.AddStatSource(in.hist.Stats)
		}
	}
	if pl.insitu {
		icfg, err := cfg.Insitu.InsituConfig()
		if err != nil {
			return nil, err
		}
		pub, q := insitu.NewPipeline(icfg)
		obs := insitu.NewObserver(insitu.ObserverConfig{
			Sources: insitu.ExpectedSources(in.meta),
			Rec:     in.reg.NewRecorder("observer"),
		})
		obs.SetStatsSource(q.Stats)
		in.meta.EnableInsitu(pub)
		in.queue, in.obsDone = q, make(chan struct{})
		go func() {
			defer close(in.obsDone)
			obs.Run(q)
		}()
		if in.mon != nil {
			in.mon.SetSnapshotSource(obs)
		}
	}
	in.ck = &core.Checkpointer{
		Meta:     in.meta,
		Networks: in.networks,
		Store:    &checkpoint.Store{Dir: filepath.Join(dir, "checkpoints")},
	}
	return in, nil
}

// close drains the in-situ pipeline and checks its ledger: every published
// piece must be either delivered or dropped. It returns the final queue
// accounting (zero without the in-situ plane).
func (in *instance) close() (insitu.Stats, error) {
	q := in.queue
	if q == nil {
		return insitu.Stats{}, nil
	}
	in.queue = nil
	q.Close()
	<-in.obsDone
	st := q.Stats()
	if st.Published != st.Delivered+st.Dropped {
		return st, fmt.Errorf("in-situ ledger: published %d != delivered %d + dropped %d",
			st.Published, st.Delivered, st.Dropped)
	}
	return st, nil
}
