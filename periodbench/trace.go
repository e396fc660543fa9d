package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"nektarg/internal/telemetry"
)

// span is one benchmark-side span: a public call the benchmark made, or one
// period's delta of a telemetry stage recorded as a child of the call it
// happened in. Count is the number of stage spans the delta folds (0 for a
// call span).
type span struct {
	Name, Track string
	Start, End  time.Duration // since the tracer's epoch
	Parent      int           // index into the tracer's spans, -1 for a root
	Period      int
	Count       int64
}

// tracer keeps the traced run's spans in memory until the run ends. A nil
// tracer records nothing, which is how untraced cycles run.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name, track string, parent, period int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Track: track, Start: now, End: now, Parent: parent, Period: period})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// child records a stage delta under parent, starting where parent starts.
func (t *tracer) child(parent int, track, name string, d stageDelta) {
	if t == nil || parent < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent]
	t.spans = append(t.spans, span{
		Name: name, Track: track, Start: p.Start,
		End:    p.Start + time.Duration(d.total*float64(time.Second)),
		Parent: parent, Period: p.Period, Count: d.count,
	})
}

// writeChrome writes the spans as Chrome trace_event JSON, one thread row
// per track.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	tids := map[string]int{}
	var events []event
	for _, s := range t.spans {
		tid, ok := tids[s.Track]
		if !ok {
			tid = len(tids)
			tids[s.Track] = tid
			events = append(events, event{Name: "thread_name", Ph: "M", PID: 1, TID: tid,
				Args: map[string]any{"name": s.Track}})
		}
		args := map[string]any{"period": s.Period}
		if s.Parent >= 0 {
			args["parent"] = t.spans[s.Parent].Name
		}
		if s.Count > 0 {
			args["count"] = s.Count
		}
		cat, _, _ := strings.Cut(s.Name, ".")
		events = append(events, event{
			Name: s.Name, Cat: cat, Ph: "X", PID: 1, TID: tid,
			TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Args: args,
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = json.NewEncoder(bw).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// stageDelta is one telemetry stage's growth over one period.
type stageDelta struct {
	total float64 // seconds
	count int64
}

// telemetrySnap is the cumulative stage and gauge aggregates of every
// recorder, keyed "<track>/<name>".
type telemetrySnap struct {
	stages map[string]telemetry.StageStats
	gauges map[string]telemetry.GaugeStats
}

func snapTelemetry(reg *telemetry.Registry) telemetrySnap {
	s := telemetrySnap{stages: map[string]telemetry.StageStats{}, gauges: map[string]telemetry.GaugeStats{}}
	for _, r := range reg.Recorders() {
		track := r.Track()
		r.VisitStages(func(name string, st telemetry.StageStats) { s.stages[track+"/"+name] = st })
		r.VisitGauges(func(name string, g telemetry.GaugeStats) { s.gauges[track+"/"+name] = g })
	}
	return s
}

// periodRecord is what the traced cycle keeps about one period.
type periodRecord struct {
	wall, advance, exchange1D float64 // ms
	stages                    map[string]stageDelta
	gaugeSum                  map[string]float64 // growth of each gauge's sum
	gaugeLast                 map[string]float64
}

// diff fills rec with the growth from prev to cur and records each stage as
// a child span of the call it ran in.
func (rec *periodRecord) diff(prev, cur telemetrySnap, tr *tracer, parents map[string]int) {
	rec.stages = map[string]stageDelta{}
	rec.gaugeSum = map[string]float64{}
	rec.gaugeLast = map[string]float64{}
	keys := make([]string, 0, len(cur.stages))
	for k := range cur.stages {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		st := cur.stages[k]
		p := prev.stages[k]
		d := stageDelta{total: st.Total - p.Total, count: st.Count - p.Count}
		if d.count == 0 {
			continue
		}
		rec.stages[k] = d
		track, name, _ := strings.Cut(k, "/")
		parent := parents["Metasolver.Advance"]
		switch {
		case strings.HasPrefix(name, "meta.checkpoint"):
			parent = parents["Checkpointer.Checkpoint"]
		case strings.HasPrefix(name, "1d."):
			parent = parents["OutletTo1D.Exchange"]
		}
		tr.child(parent, track, name, d)
	}
	for k, g := range cur.gauges {
		rec.gaugeSum[k] = g.Sum - prev.gauges[k].Sum
		rec.gaugeLast[k] = g.Last
	}
}

// stageMs is the stage's time in the period, in milliseconds.
func (rec *periodRecord) stageMs(key string) float64 { return rec.stages[key].total * 1e3 }
