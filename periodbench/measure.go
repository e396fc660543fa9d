package main

import (
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean returns the arithmetic mean of xs (0 for an empty slice).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// usage is the process's CPU time and cumulative heap counters.
type usage struct {
	cpu                                     time.Duration
	allocs, allocBytes, gcCycles, gcPauseNs uint64
}

// readUsage reads usage now. ReadMemStats stops the world briefly, so it is
// read only outside timed operations.
func readUsage() usage {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return usage{cpuTime(), m.Mallocs, m.TotalAlloc, uint64(m.NumGC), m.PauseTotalNs}
}

func (u usage) sub(v usage) usage {
	return usage{u.cpu - v.cpu, u.allocs - v.allocs, u.allocBytes - v.allocBytes,
		u.gcCycles - v.gcCycles, u.gcPauseNs - v.gcPauseNs}
}

func (u usage) add(v usage) usage {
	return usage{u.cpu + v.cpu, u.allocs + v.allocs, u.allocBytes + v.allocBytes,
		u.gcCycles + v.gcCycles, u.gcPauseNs + v.gcPauseNs}
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// scraper is an in-process GET /metrics client through monitor.Handler().
// Each scrape's latency is timed from when it was due.
type scraper struct {
	h     http.Handler
	mean  time.Duration // mean gap between open-loop scrapes
	rng   *rand.Rand
	tr    *tracer
	stopc chan struct{}
	done  chan struct{}

	latency, late, bytes []float64 // ms, ms, bytes
	failed               int
}

// startScraper starts an open-loop scraper that, like a Prometheus server
// scraping one target, comes back at a fixed mean interval. Each gap is drawn
// uniformly from [mean/2, 3·mean/2] by a seeded generator, so the schedule is
// fixed by the seed, the jitter keeps the scrapes from locking onto one phase
// of an exchange period, and no scrape is due before the previous one has
// had half an interval to finish. Scrape k is due at its scheduled time
// whatever the previous scrapes did, so a stall is charged to every scrape
// queued behind it.
func startScraper(h http.Handler, mean time.Duration, seed uint64, tr *tracer) *scraper {
	s := &scraper{h: h, mean: mean, rng: rand.New(rand.NewPCG(seed, 0)), tr: tr,
		stopc: make(chan struct{}), done: make(chan struct{})}
	go s.run()
	return s
}

func (s *scraper) run() {
	// Dropping the handler lets the scraped instance be collected while the
	// results are kept.
	defer func() { s.h, s.tr = nil, nil; close(s.done) }()
	// The timer is armed only right before each wait and always drained by
	// it, so no stale tick can release a scrape early.
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	defer timer.Stop()
	due := time.Now().Add(s.gap())
	for {
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-s.stopc:
				return
			case <-timer.C:
			}
		} else {
			select {
			case <-s.stopc:
				return
			default:
			}
		}
		s.scrape(due)
		due = due.Add(s.gap())
	}
}

// scrape makes one GET /metrics that was due at due. Called with the time it
// starts, it times the handler's service alone.
func (s *scraper) scrape(due time.Time) {
	start := time.Now()
	id := s.tr.begin("GET /metrics", "scraper", -1, 0)
	rec := httptest.NewRecorder()
	s.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	s.tr.end(id)
	end := time.Now()
	s.latency = append(s.latency, ms(end.Sub(due)))
	s.late = append(s.late, ms(start.Sub(due)))
	s.bytes = append(s.bytes, float64(rec.Body.Len()))
	if rec.Code != http.StatusOK {
		s.failed++
	}
}

func (s *scraper) gap() time.Duration {
	return time.Duration((0.5 + s.rng.Float64()) * float64(s.mean))
}

// stop ends an open-loop scraper and waits for its goroutine to exit.
func (s *scraper) stop() {
	close(s.stopc)
	<-s.done
}
