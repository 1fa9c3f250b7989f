package server

import (
	"expvar"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// histBuckets is the fixed bucket count of the latency histograms: bucket
// i covers [2^(i-1), 2^i) microseconds (bucket 0 is sub-microsecond),
// reaching ~9 minutes at the top — far past any admissible deadline.
const histBuckets = 30

// hist is a lock-free log-spaced latency histogram.
type hist struct {
	counts [histBuckets]atomic.Int64
	count  atomic.Int64
	sumNS  atomic.Int64
	maxNS  atomic.Int64
}

func (h *hist) observe(d time.Duration) {
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	b := bits.Len64(uint64(ns / 1000))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	h.counts[b].Add(1)
	h.count.Add(1)
	h.sumNS.Add(ns)
	for {
		cur := h.maxNS.Load()
		if ns <= cur || h.maxNS.CompareAndSwap(cur, ns) {
			break
		}
	}
}

// quantile returns an upper-bound estimate (in ns) of the p-quantile: the
// top of the bucket where the cumulative count crosses p.
func (h *hist) quantile(p float64) int64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	target := int64(p * float64(total))
	if target < 1 {
		target = 1
	}
	var cum int64
	for b := 0; b < histBuckets; b++ {
		cum += h.counts[b].Load()
		if cum >= target {
			return (int64(1) << b) * 1000 // bucket upper bound in ns
		}
	}
	return h.maxNS.Load()
}

// HistJSON is the /statz rendering of one histogram.
type HistJSON struct {
	Count   int64   `json:"count"`
	MeanMS  float64 `json:"mean_ms"`
	P50MS   float64 `json:"p50_ms"`
	P90MS   float64 `json:"p90_ms"`
	P99MS   float64 `json:"p99_ms"`
	MaxMS   float64 `json:"max_ms"`
	Buckets []int64 `json:"buckets_us_pow2,omitempty"`
}

func (h *hist) snapshot() HistJSON {
	n := h.count.Load()
	out := HistJSON{
		Count: n,
		P50MS: float64(h.quantile(0.50)) / 1e6,
		P90MS: float64(h.quantile(0.90)) / 1e6,
		P99MS: float64(h.quantile(0.99)) / 1e6,
		MaxMS: float64(h.maxNS.Load()) / 1e6,
	}
	if n > 0 {
		out.MeanMS = float64(h.sumNS.Load()) / float64(n) / 1e6
		hi := 0
		buckets := make([]int64, histBuckets)
		for b := 0; b < histBuckets; b++ {
			buckets[b] = h.counts[b].Load()
			if buckets[b] > 0 {
				hi = b
			}
		}
		out.Buckets = buckets[:hi+1]
	}
	return out
}

// phaseNames are the fixed histogram keys of /statz.
var phaseNames = []string{"parse", "compile", "simulate", "total"}

// metrics is the daemon's counter set.
type metrics struct {
	start time.Time

	total, ok                  atomic.Int64
	parseErrors, compileErrors atomic.Int64
	rejected, deadlines        atomic.Int64

	// Batch accounting: requests to /v1/compile/batch, entries across
	// them, and entries collapsed onto an identical sibling.
	batchRequests, batchEntries, batchDeduped atomic.Int64

	// Per-method accounting: requests by their method string (portfolio
	// modes included), plus racer win attribution and selector picks from
	// portfolio compiles — request-rate map updates, far off any hot path.
	// guards: methodRequests, racerWins, selectorPicks
	methodMu       sync.Mutex
	methodRequests map[string]int64
	racerWins      map[string]int64
	selectorPicks  int64

	phases map[string]*hist
}

// countMethod records one well-formed compile request for a method label.
func (m *metrics) countMethod(name string) {
	m.methodMu.Lock()
	m.methodRequests[name]++
	m.methodMu.Unlock()
}

// countRaceOutcome folds one portfolio module result into the win and
// selector-pick counters.
func (m *metrics) countRaceOutcome(wins map[string]int, selected int) {
	m.methodMu.Lock()
	for name, n := range wins {
		m.racerWins[name] += int64(n)
	}
	m.selectorPicks += int64(selected)
	m.methodMu.Unlock()
}

func newMetrics() *metrics {
	m := &metrics{
		start:          time.Now(),
		phases:         map[string]*hist{},
		methodRequests: map[string]int64{},
		racerWins:      map[string]int64{},
	}
	for _, n := range phaseNames {
		m.phases[n] = &hist{}
	}
	return m
}

func (m *metrics) phase(name string) *hist { return m.phases[name] }

// RequestCounts is the /statz request-outcome section.
type RequestCounts struct {
	Total         int64 `json:"total"`
	OK            int64 `json:"ok"`
	ParseErrors   int64 `json:"parse_errors"`
	CompileErrors int64 `json:"compile_errors"`
	Rejected      int64 `json:"rejected_429"`
	Deadlines     int64 `json:"deadline_504"`
}

// CacheStatz is the /statz in-memory cache section (compilecache.Stats
// plus derived rates and the configured cap). The full_* counters are the
// memory level only: a lookup served off disk still counts as a full-layer
// miss here, with the disk attribution in disk_hits/disk_misses and the
// store-side view in the top-level disk section. Cold compiles are
// full_misses with a matching disk_miss; memory hits never touch disk.
type CacheStatz struct {
	FullHits      int64   `json:"full_hits"`
	FullMisses    int64   `json:"full_misses"`
	FullHitRate   float64 `json:"full_hit_rate"`
	DiskHits      int64   `json:"disk_hits"`
	DiskMisses    int64   `json:"disk_misses"`
	DiskHitRate   float64 `json:"disk_hit_rate"`
	PrefixHits    int64   `json:"prefix_hits"`
	PrefixMisses  int64   `json:"prefix_misses"`
	PrefixHitRate float64 `json:"prefix_hit_rate"`
	AllocHits     int64   `json:"alloc_hits"`
	AllocMisses   int64   `json:"alloc_misses"`
	AllocHitRate  float64 `json:"alloc_hit_rate"`
	BytesRetained int64   `json:"bytes_retained"`
	MaxBytes      int64   `json:"max_bytes"`
	Evictions     int64   `json:"evictions"`
	FullEntries   int     `json:"full_entries"`
	PrefixEntries int     `json:"prefix_entries"`
	AllocEntries  int     `json:"alloc_entries"`
}

// DiskStatz is the /statz persistent-store section: the store's own view
// of the second cache level (absent when no disk cache is configured).
type DiskStatz struct {
	Dir string `json:"dir"`
	// Hits/Misses count store lookups (one per full-layer memory miss).
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Puts/DroppedPuts count write-behind enqueues; drops happen only when
	// the writer queue is saturated (the entry just isn't persisted).
	Puts        int64 `json:"puts"`
	DroppedPuts int64 `json:"dropped_puts"`
	// Corrupt counts entries that failed checksum or framing validation
	// and were quarantined (each read as a miss, never an error).
	Corrupt int64 `json:"corrupt"`
	// Evictions counts files removed by the byte-cap sweep.
	Evictions   int64 `json:"evictions"`
	BytesStored int64 `json:"bytes_stored"`
	MaxBytes    int64 `json:"max_bytes"`
	Entries     int64 `json:"entries"`
}

// BatchStatz is the /statz batch-endpoint section.
type BatchStatz struct {
	Requests int64 `json:"requests"`
	Entries  int64 `json:"entries"`
	Deduped  int64 `json:"deduped"`
}

// MethodStatz is the /statz per-method section: request counts by method
// string (racing modes counted under "portfolio"/"auto"), racer win
// attribution per winning method, and the count of functions the auto-mode
// selector decided without racing.
type MethodStatz struct {
	Requests      map[string]int64 `json:"requests"`
	RacerWins     map[string]int64 `json:"racer_wins,omitempty"`
	SelectorPicks int64            `json:"selector_picks,omitempty"`
}

// Statz is the full /statz document. The same value is published through
// expvar (see PublishExpvar), so external scrapers get one schema.
type Statz struct {
	UptimeS     float64             `json:"uptime_s"`
	Draining    bool                `json:"draining"`
	InFlight    int64               `json:"inflight"`
	Queued      int64               `json:"queued"`
	MaxInFlight int                 `json:"max_inflight"`
	MaxQueue    int                 `json:"max_queue"`
	Requests    RequestCounts       `json:"requests"`
	Methods     *MethodStatz        `json:"methods,omitempty"`
	Cache       CacheStatz          `json:"cache"`
	Disk        *DiskStatz          `json:"disk,omitempty"`
	Batch       BatchStatz          `json:"batch"`
	Phases      map[string]HistJSON `json:"phases"`
}

// Statz snapshots every counter.
func (s *Server) Statz() Statz {
	cs := s.cache.Stats()
	out := Statz{
		UptimeS:     time.Since(s.metrics.start).Seconds(),
		Draining:    s.draining.Load(),
		InFlight:    int64(len(s.slots)),
		Queued:      s.queued.Load(),
		MaxInFlight: s.cfg.MaxInFlight,
		MaxQueue:    s.cfg.MaxQueue,
		Requests: RequestCounts{
			Total:         s.metrics.total.Load(),
			OK:            s.metrics.ok.Load(),
			ParseErrors:   s.metrics.parseErrors.Load(),
			CompileErrors: s.metrics.compileErrors.Load(),
			Rejected:      s.metrics.rejected.Load(),
			Deadlines:     s.metrics.deadlines.Load(),
		},
		Cache: CacheStatz{
			FullHits:      cs.FullHits,
			FullMisses:    cs.FullMisses,
			FullHitRate:   cs.FullHitRate(),
			DiskHits:      cs.DiskHits,
			DiskMisses:    cs.DiskMisses,
			DiskHitRate:   cs.DiskHitRate(),
			PrefixHits:    cs.PrefixHits,
			PrefixMisses:  cs.PrefixMisses,
			PrefixHitRate: cs.PrefixHitRate(),
			AllocHits:     cs.AllocHits,
			AllocMisses:   cs.AllocMisses,
			AllocHitRate:  cs.AllocHitRate(),
			BytesRetained: cs.BytesRetained,
			MaxBytes:      s.cache.MaxBytes(),
			Evictions:     cs.Evictions,
			FullEntries:   cs.FullEntries,
			PrefixEntries: cs.PrefixEntries,
			AllocEntries:  cs.AllocEntries,
		},
		Batch: BatchStatz{
			Requests: s.metrics.batchRequests.Load(),
			Entries:  s.metrics.batchEntries.Load(),
			Deduped:  s.metrics.batchDeduped.Load(),
		},
		Phases: map[string]HistJSON{},
	}
	s.metrics.methodMu.Lock()
	if len(s.metrics.methodRequests) > 0 {
		ms := &MethodStatz{
			Requests:      make(map[string]int64, len(s.metrics.methodRequests)),
			SelectorPicks: s.metrics.selectorPicks,
		}
		for k, v := range s.metrics.methodRequests {
			ms.Requests[k] = v
		}
		if len(s.metrics.racerWins) > 0 {
			ms.RacerWins = make(map[string]int64, len(s.metrics.racerWins))
			for k, v := range s.metrics.racerWins {
				ms.RacerWins[k] = v
			}
		}
		out.Methods = ms
	}
	s.metrics.methodMu.Unlock()
	if s.disk != nil {
		ds := s.disk.Stats()
		out.Disk = &DiskStatz{
			Dir:         s.disk.Dir(),
			Hits:        ds.Hits,
			Misses:      ds.Misses,
			Puts:        ds.Puts,
			DroppedPuts: ds.DroppedPuts,
			Corrupt:     ds.Corrupt,
			Evictions:   ds.Evictions,
			BytesStored: ds.BytesStored,
			MaxBytes:    s.disk.MaxBytes(),
			Entries:     ds.Entries,
		}
	}
	for _, n := range phaseNames {
		out.Phases[n] = s.metrics.phases[n].snapshot()
	}
	return out
}

var expvarOnce sync.Once

// PublishExpvar exposes the server's Statz under the given expvar name
// (also reachable at /debug/vars when the daemon mounts expvar.Handler()).
// Only the first call across the process wins — expvar registration is
// global and permanent, so tests creating many servers must not call this.
func (s *Server) PublishExpvar(name string) {
	expvarOnce.Do(func() {
		expvar.Publish(name, expvar.Func(func() any { return s.Statz() }))
	})
}
