package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"prescount/internal/bankfile"
	"prescount/internal/compilecache"
	"prescount/internal/conflict"
	"prescount/internal/core"
	"prescount/internal/ir"
	"prescount/internal/pool"
	"prescount/internal/server"
	"prescount/internal/sim"
	"prescount/internal/workload"
)

// serveSLO is the serve workloads' client-observed latency limit: about
// four times serve-unique's median request (a cold compile plus a
// simulation over the daemon's 8 MiB default memory).
const serveSLO = 100 * time.Millisecond

// serveFile is the daemon's default register file (regs 32, banks 2).
// serve-unique sends no file options, so every request compiles on it.
var serveFile = bankfile.RV2(2)

// repeatFiles are the register files serve-repeat replays its corpus on:
// the daemon's default, and an 8-register file (regs=8 in the request) so
// register pressure — and spilling — shows in the served code's quality.
var repeatFiles = []bankfile.Config{serveFile, {NumRegs: 8, NumBanks: 2, NumSubgroups: 1, ReadPorts: 1}}

// daemon is an in-process prescountd on a loopback listener, with a
// client limited to nproc connections.
type daemon struct {
	srv    *server.Server
	hs     *http.Server
	url    string
	client *http.Client
	served chan error
}

func startDaemon() (*daemon, error) {
	srv, err := server.New(server.Config{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		srv: srv,
		hs:  &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		url: "http://" + ln.Addr().String() + "/v1/compile",
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     nproc,
			MaxIdleConnsPerHost: nproc,
			DisableCompression:  true,
		}},
		served: make(chan error, 1),
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// close stops the listener and waits for the serving goroutine to exit.
func (d *daemon) close() {
	d.client.CloseIdleConnections()
	d.hs.Close()
	<-d.served
	d.srv.Close()
}

// post sends one JSON compile request and returns the status and body.
func (d *daemon) post(body []byte) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, d.url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// kernel is one request of a serve workload.
type kernel struct {
	fn     *ir.Func
	file   bankfile.Config
	body   []byte
	instrs int
}

// newKernel renders the request for fn on file; the default file is left
// to the daemon's default, as a client that sends no options does.
func newKernel(fn *ir.Func, file bankfile.Config, simulate bool) (*kernel, error) {
	req := server.CompileRequest{MIR: ir.Print(fn), Simulate: simulate}
	if file != serveFile {
		req.Regs, req.Banks = file.NumRegs, file.NumBanks
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	return &kernel{fn: fn, file: file, body: body, instrs: fn.NumInstrs()}, nil
}

// reportOf renders a conflict report the way the daemon's response does.
func reportOf(r *conflict.Report) server.ReportJSON {
	return server.ReportJSON{
		Instrs:             r.Instrs,
		ConflictRelevant:   r.ConflictRelevant,
		StaticConflicts:    r.StaticConflicts,
		ConflictInstrs:     r.ConflictInstrs,
		WeightedConflicts:  r.WeightedConflicts,
		SubgroupViolations: r.SubgroupViolations,
		Copies:             r.Copies,
		SpillStores:        r.SpillStores,
		SpillReloads:       r.SpillReloads,
	}
}

// parseLikeServer parses request MIR as the daemon does: as a module,
// falling back to a bare function.
func parseLikeServer(src string) (*ir.Module, error) {
	mod, err := ir.ParseModule(src)
	if err != nil {
		return nil, err
	}
	if len(mod.Funcs) == 0 {
		f, err := ir.Parse(src)
		if err != nil {
			return nil, err
		}
		mod.Add(f)
	}
	return mod, nil
}

// serveOptions are the core options the daemon derives from a request on
// file without a method field.
func serveOptions(file bankfile.Config, cache *compilecache.Cache) core.Options {
	return core.Options{File: file, Method: core.MethodBPC, Cache: cache}
}

// exchange is one client request/response pair.
type exchange struct {
	k    int
	due  time.Time // open loop only: when the request was due
	sent time.Time
	done time.Time
	resp *server.CompileResponse
	err  error
}

// do sends one request and decodes its 200 response; any other status
// (a refusal, a deadline, an error) is an error.
func (d *daemon) do(body []byte) (*server.CompileResponse, error) {
	status, data, err := d.post(body)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(data))
	}
	var resp server.CompileResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, fmt.Errorf("response JSON: %w", err)
	}
	return &resp, nil
}

// peakSampler polls the daemon's admission gauges until stopped.
type peakSampler struct {
	inflight, queued atomic.Int64
	stop             chan struct{}
	done             chan struct{}
}

func samplePeaks(srv *server.Server) *peakSampler {
	p := &peakSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
				st := srv.Statz()
				if st.InFlight > p.inflight.Load() {
					p.inflight.Store(st.InFlight)
				}
				if st.Queued > p.queued.Load() {
					p.queued.Store(st.Queued)
				}
			}
		}
	}()
	return p
}

func (p *peakSampler) close() {
	close(p.stop)
	<-p.done
}

// --- serve-repeat -------------------------------------------------------

// repeatCorpusSize is the daemon's replay corpus: 16 distinct kernels,
// each replayed on every file of repeatFiles.
const repeatCorpusSize = 16

// repeatSetup is serve-repeat's prepared state.
type repeatSetup struct {
	d       *daemon
	kernels []*kernel
	// want is each kernel's report from a library compile done in set-up.
	want   []server.ReportJSON
	cycles int64
}

func setupServeRepeat() (*repeatSetup, error) {
	d, err := startDaemon()
	if err != nil {
		return nil, err
	}
	s := &repeatSetup{d: d}
	for _, src := range server.Corpus(repeatCorpusSize) {
		mod, err := parseLikeServer(src)
		if err != nil {
			d.close()
			return nil, err
		}
		f := mod.SortedFuncs()[0]
		for _, file := range repeatFiles {
			k, err := newKernel(f, file, false)
			if err != nil {
				d.close()
				return nil, err
			}
			res, err := core.Compile(f, serveOptions(file, nil))
			if err != nil {
				d.close()
				return nil, err
			}
			sr, err := sim.Run(res.Func, sim.Options{File: file})
			if err != nil {
				d.close()
				return nil, err
			}
			s.kernels = append(s.kernels, k)
			s.want = append(s.want, reportOf(res.Report))
			s.cycles += sr.Cycles
		}
	}
	// Warm-up: one pass fills the daemon's cache; a second warms both
	// client connections.
	for pass := 0; pass < 2; pass++ {
		for _, k := range s.kernels {
			if _, err := d.do(k.body); err != nil {
				d.close()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return s, nil
}

// closedLoop runs nproc clients until the deadline; client c replays the
// corpus in order starting at kernel c*len/nproc. It returns every
// exchange and the wall of each full corpus replay by one client.
func closedLoop(d *daemon, kernels []*kernel, seconds float64) ([]exchange, []float64) {
	var mu sync.Mutex
	var all []exchange
	var rounds []float64
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := 0; c < nproc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var mine []exchange
			var myRounds []float64
			for i, roundStart := 0, time.Now(); time.Now().Before(deadline); i++ {
				k := (c*len(kernels)/nproc + i) % len(kernels)
				ex := exchange{k: k, sent: time.Now()}
				ex.resp, ex.err = d.do(kernels[k].body)
				ex.done = time.Now()
				mine = append(mine, ex)
				if (i+1)%len(kernels) == 0 {
					myRounds = append(myRounds, ex.done.Sub(roundStart).Seconds())
					roundStart = ex.done
				}
			}
			mu.Lock()
			all = append(all, mine...)
			rounds = append(rounds, myRounds...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return all, rounds
}

func runServeRepeat(cfg runConfig) (*result, error) {
	s, setupS, err := medianSetup(3, setupServeRepeat, func(s *repeatSetup) { s.d.close() })
	if err != nil {
		return nil, err
	}
	defer s.d.close()
	fmt.Printf("serve-repeat: cache=warm (all %d requests sent before timing) clients=%d closed loop\n", len(s.kernels), nproc)
	if cfg.trace {
		return traceServeRepeat(cfg, s)
	}
	var t tally
	heap0 := heapAllocated()
	start := time.Now()
	exs, rounds := closedLoop(s.d, s.kernels, cfg.seconds)
	measured := time.Since(start).Seconds()
	speed := cfg.probe.finish()
	heapBytes := heapAllocated() - heap0

	var lat, handler []float64
	var instrs, ok int64
	within := 0
	for _, ex := range exs {
		t.attempted++
		switch {
		case ex.err != nil:
			t.fail("kernel %d: %v", ex.k, ex.err)
			continue
		case ex.resp.Report != s.want[ex.k]:
			t.fail("kernel %d: report %+v, library compile gives %+v", ex.k, ex.resp.Report, s.want[ex.k])
			continue
		}
		ok++
		instrs += int64(s.kernels[ex.k].instrs)
		l := ex.done.Sub(ex.sent)
		lat = append(lat, ms(l))
		handler = append(handler, float64(ex.resp.WallNS)/1e6)
		if float64(l)*speed <= float64(serveSLO) {
			within++
		}
	}
	var static, spills int64
	for _, w := range s.want {
		static += int64(w.StaticConflicts)
		spills += int64(w.SpillStores + w.SpillReloads)
	}
	cs := s.d.srv.Cache().Stats()
	fmt.Printf("serve-repeat: requests=%d ok=%d full_hit_rate=%.4f\n", t.attempted, ok, cs.FullHitRate())
	r := t.newResult()
	r.set("setup_s", setupS)
	r.set("wall_s", median(rounds))
	r.set("throughput_instrs_per_s", float64(instrs)/measured)
	r.set("throughput_rps", float64(ok)/measured)
	r.set("compile_p50_ms", quantile(handler, 0.50))
	r.set("compile_p99_ms", quantile(handler, 0.99))
	r.set("latency_p50_ms", quantile(lat, 0.50))
	r.set("latency_p99_ms", quantile(lat, 0.99))
	r.set("slo_attainment", float64(within)/float64(t.attempted))
	r.set("success_frac", t.successFrac())
	r.set("static_conflicts", float64(static))
	r.set("spill_instrs", float64(spills))
	r.set("sim_cycles", float64(s.cycles))
	r.set("peak_rss_mb", peakRSSMiB())
	r.set("alloc_bytes_per_instr", float64(heapBytes)/float64(instrs))
	return r, nil
}

// requestSplit accumulates, over replayed request bodies, the time of
// each layer of the request path taken on its own, outside the daemon.
type requestSplit struct {
	decode, parse, fingerprint, compile, simulate, encode, handler []float64
	simSteps                                                       int64
	// compileMallocs counts heap objects allocated by the isolated
	// compiles.
	compileMallocs uint64
}

// replay sends body through the daemon's handler with a response recorder
// (no network) and then repeats each layer of the request path on its own:
// JSON decode, parse, fingerprint, compile, simulate and response encode.
// opts carries the cache whose warm or cold state the replay must match.
func (rs *requestSplit) replay(srv *server.Server, k *kernel, cache *compilecache.Cache) error {
	body, opts := k.body, serveOptions(k.file, cache)
	h := srv.Handler()
	req := httptest.NewRequest(http.MethodPost, "/v1/compile", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	t0 := time.Now()
	h.ServeHTTP(rec, req)
	rs.handler = append(rs.handler, ms(time.Since(t0)))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("replay: status %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}

	t0 = time.Now()
	var creq server.CompileRequest
	if err := json.Unmarshal(body, &creq); err != nil {
		return err
	}
	rs.decode = append(rs.decode, ms(time.Since(t0)))
	t0 = time.Now()
	mod, err := parseLikeServer(creq.MIR)
	if err != nil {
		return err
	}
	rs.parse = append(rs.parse, ms(time.Since(t0)))
	f := mod.SortedFuncs()[0]
	t0 = time.Now()
	f.Fingerprint()
	rs.fingerprint = append(rs.fingerprint, ms(time.Since(t0)))
	m0 := mallocs()
	t0 = time.Now()
	mres, err := core.CompileModuleContext(context.Background(), mod, opts)
	if err != nil {
		return err
	}
	rs.compile = append(rs.compile, ms(time.Since(t0)))
	rs.compileMallocs += mallocs() - m0
	res := mres.PerFunc[f.Name]
	fr := server.FuncResponse{Func: f.Name, Report: reportOf(res.Report), Alloc: server.AllocJSON{
		SpilledVRegs: res.Alloc.SpilledVRegs, SpillStores: res.Alloc.SpillStores, SpillReloads: res.Alloc.SpillReloads,
		LoopSplits: res.Alloc.LoopSplits, Evictions: res.Alloc.Evictions, Remats: res.Alloc.Remats, BankBreaks: res.Alloc.BankBreaks,
	}}
	if creq.Simulate {
		t0 = time.Now()
		sr, err := sim.Run(res.Func, sim.Options{File: opts.File})
		if err != nil {
			return err
		}
		rs.simulate = append(rs.simulate, ms(time.Since(t0)))
		rs.simSteps += sr.Steps
		fr.Sim = &server.SimJSON{Steps: sr.Steps, Cycles: sr.Cycles, DynamicConflicts: sr.DynamicConflicts,
			ConflictInstances: sr.ConflictInstances, MemChecksum: fmt.Sprintf("%016x", sr.MemChecksum)}
	}
	t0 = time.Now()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(server.CompileResponse{FuncResponse: fr, WallNS: 1}); err != nil {
		return err
	}
	rs.encode = append(rs.encode, ms(time.Since(t0)))
	return nil
}

// set reports the request-path split as per-request medians.
func (rs *requestSplit) set(r *result, clientP50 float64) {
	r.set("server.decode_ms", median(rs.decode))
	r.set("ir.parse_ms", median(rs.parse))
	r.set("ir.fingerprint_ms", median(rs.fingerprint))
	r.set("core.compile_ms", median(rs.compile))
	r.set("core.allocs_per_compile", float64(rs.compileMallocs)/float64(len(rs.compile)))
	r.set("server.encode_ms", median(rs.encode))
	r.set("server.handler_ms", median(rs.handler))
	r.set("http.transport_ms", clientP50-median(rs.handler))
	fmt.Printf("request split (per-request medians, ms): client=%.4f handler=%.4f transport=%.4f | decode=%.4f parse=%.4f fingerprint=%.4f compile=%.4f simulate=%.4f encode=%.4f\n",
		clientP50, median(rs.handler), clientP50-median(rs.handler), median(rs.decode), median(rs.parse),
		median(rs.fingerprint), median(rs.compile), median(rs.simulate), median(rs.encode))
}

func setCacheMetrics(r *result, cs compilecache.Stats) {
	r.set("compilecache.full_hit_rate", cs.FullHitRate())
	r.set("compilecache.prefix_hit_rate", cs.PrefixHitRate())
	r.set("compilecache.alloc_hit_rate", cs.AllocHitRate())
	r.set("compilecache.bytes_retained", float64(cs.BytesRetained))
	r.set("compilecache.evictions", float64(cs.Evictions))
}

// requestPathMetrics are the per-layer metrics of the daemon's request
// path that serve-repeat's traced run measures and compile-cold's traced
// run takes from it.
var requestPathMetrics = []string{
	"ir.parse_ms", "ir.fingerprint_ms", "server.decode_ms", "server.encode_ms", "server.handler_ms",
	"http.transport_ms", "server.statz_total_p50_ms", "server.inflight_peak", "server.queued_peak", "server.rejected",
	"compilecache.full_hit_rate", "compilecache.prefix_hit_rate", "compilecache.alloc_hit_rate",
	"compilecache.bytes_retained", "compilecache.evictions",
}

// traceServeRepeat is serve-repeat's traced run: the closed loop over
// HTTP for the client-observed p50 and the daemon's own histograms, then
// replays of the recorded bodies against the still-warm daemon, split by
// layer.
func traceServeRepeat(cfg runConfig, s *repeatSetup) (*result, error) {
	var t tally
	before := s.d.srv.Cache().Stats()
	peaks := samplePeaks(s.d.srv)
	exs, _ := closedLoop(s.d, s.kernels, cfg.seconds/2)
	peaks.close()
	var lat []float64
	for _, ex := range exs {
		t.attempted++
		if ex.err != nil || ex.resp.Report != s.want[ex.k] {
			t.fail("kernel %d: wrong or failed response (%v)", ex.k, ex.err)
			continue
		}
		lat = append(lat, ms(ex.done.Sub(ex.sent)))
	}
	cs := s.d.srv.Cache().Stats().Delta(before)
	st := s.d.srv.Statz()

	var rs requestSplit
	for deadline := time.Now().Add(time.Duration(cfg.seconds / 2 * float64(time.Second))); time.Now().Before(deadline); {
		for _, k := range s.kernels {
			t.attempted++
			if err := rs.replay(s.d.srv, k, s.d.srv.Cache()); err != nil {
				t.fail("replay: %v", err)
			}
		}
	}
	r := t.newResult()
	setLayerDefaults(r)
	rs.set(r, median(lat))
	r.set("server.statz_total_p50_ms", st.Phases["total"].P50MS)
	r.set("server.inflight_peak", float64(peaks.inflight.Load()))
	r.set("server.queued_peak", float64(peaks.queued.Load()))
	r.set("server.rejected", float64(st.Requests.Rejected))
	r.set("core.compiles", float64(cs.FullHits+cs.FullMisses))
	setCacheMetrics(r, cs)
	return r, nil
}

// --- serve-unique -------------------------------------------------------

// serve-unique's open loop: uniqueRate requests per second, each a seeded
// random kernel of uniqueSize instructions never sent before, with
// simulation on. The rate sits well below the daemon's capacity on this
// box (README.md).
const (
	uniqueRate = 40
	uniqueSize = 160
	// uniqueWarmup kernels warm the connections and the runtime before
	// timing; they are distinct from every timed kernel.
	uniqueWarmup = 8
	// maxLagP99 is the open-loop generator's allowed lateness: when the
	// generator's own p99 lateness reaches the latency limit, the offered
	// load was not the stated schedule and the run is refused. A woken
	// generator queues for a processor behind handlers that each run about
	// 20 ms, so p99 lateness sits near 15-40 ms on a 2-vCPU box; latency is
	// timed from the due time, so that wait counts against it.
	maxLagP99 = serveSLO
)

type uniqueSetup struct {
	d       *daemon
	kernels []*kernel
}

// uniqueKernels generates n distinct seeded kernels; base separates the
// timed, warm-up and traced-replay sets of one run.
func uniqueKernels(seed int64, base, n int) ([]*kernel, error) {
	out := make([]*kernel, n)
	for i := range out {
		f := randomKernel(seed, base+i)
		k, err := newKernel(f, serveFile, true)
		if err != nil {
			return nil, err
		}
		out[i] = k
	}
	return out, nil
}

// randomKernel is the i-th kernel of a seed's sequence.
func randomKernel(seed int64, i int) *ir.Func {
	f := workload.RandomSized(seed*1_000_003+int64(i), uniqueSize)
	f.Name = fmt.Sprintf("u%d", i)
	return f
}

func setupServeUnique(seed int64, n int) func() (*uniqueSetup, error) {
	return func() (*uniqueSetup, error) {
		kernels, err := uniqueKernels(seed, 0, n)
		if err != nil {
			return nil, err
		}
		d, err := startDaemon()
		if err != nil {
			return nil, err
		}
		warm, err := uniqueKernels(seed, -uniqueWarmup, uniqueWarmup)
		if err != nil {
			d.close()
			return nil, err
		}
		for _, k := range warm {
			if _, err := d.do(k.body); err != nil {
				d.close()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		return &uniqueSetup{d: d, kernels: kernels}, nil
	}
}

// openLoop sends kernel i at start + i/uniqueRate seconds, each from its
// own goroutine; the client's nproc connections queue what they cannot
// carry at once. It returns the exchanges and the generator's lateness.
func openLoop(d *daemon, kernels []*kernel) ([]exchange, []float64) {
	exs := make([]exchange, len(kernels))
	lags := make([]float64, len(kernels))
	interval := time.Second / uniqueRate
	start := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	for i := range kernels {
		due := start.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(due))
		sent := time.Now()
		lags[i] = ms(sent.Sub(due))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ex := exchange{k: i, due: due, sent: sent}
			ex.resp, ex.err = d.do(kernels[i].body)
			ex.done = time.Now()
			exs[i] = ex
		}(i)
	}
	wg.Wait()
	return exs, lags
}

// checkUnique verifies each response against a local simulation of the
// input kernel and returns the exchanges that passed.
func checkUnique(t *tally, kernels []*kernel, exs []exchange) []exchange {
	// Each worker writes only its own indices of want; a failed
	// simulation leaves "" and fails the comparison below.
	want := make([]string, len(kernels))
	_ = pool.Run(context.Background(), len(kernels), nproc, func(_ context.Context, i int) error {
		if sr, err := sim.Run(kernels[i].fn, sim.Options{}); err == nil {
			want[i] = fmt.Sprintf("%016x", sr.MemChecksum)
		}
		return nil
	})
	var good []exchange
	for _, ex := range exs {
		t.attempted++
		switch {
		case ex.err != nil:
			t.fail("kernel %d: %v", ex.k, ex.err)
		case ex.resp.Sim == nil:
			t.fail("kernel %d: response carries no simulation", ex.k)
		case want[ex.k] == "" || ex.resp.Sim.MemChecksum != want[ex.k]:
			t.fail("kernel %d: memory checksum %s, input computes %q", ex.k, ex.resp.Sim.MemChecksum, want[ex.k])
		default:
			good = append(good, ex)
		}
	}
	return good
}

func runServeUnique(cfg runConfig) (*result, error) {
	n := int(cfg.seconds * uniqueRate)
	if n < 1 {
		n = 1
	}
	s, setupS, err := medianSetup(3, setupServeUnique(cfg.seed, n), func(s *uniqueSetup) { s.d.close() })
	if err != nil {
		return nil, err
	}
	defer s.d.close()
	fmt.Printf("serve-unique: cache=cold (every kernel unique) open loop %d req/s, %d requests, %d connections\n", uniqueRate, n, nproc)
	var peaks *peakSampler
	if cfg.trace {
		peaks = samplePeaks(s.d.srv)
	}
	heap0 := heapAllocated()
	exs, lags := openLoop(s.d, s.kernels)
	heapBytes := heapAllocated() - heap0
	if peaks != nil {
		peaks.close()
	}
	if lag := quantile(lags, 0.99); lag > ms(maxLagP99) {
		return nil, fmt.Errorf("open-loop generator fell behind: lag p99 %.3f ms > %v; the offered rate was not met", lag, maxLagP99)
	}
	var t tally
	good := checkUnique(&t, s.kernels, exs)
	if cfg.trace {
		return traceServeUnique(cfg, s, &t, good, lags, peaks)
	}

	first, last := exs[0].due, exs[0].done
	for _, ex := range exs {
		if ex.done.After(last) {
			last = ex.done
		}
	}
	measured := last.Sub(first).Seconds()
	speed := cfg.probe.finish()
	var lat, handler, roundSpan []float64
	var instrs, static, spills, cycles int64
	within := 0
	for _, ex := range good {
		l := ex.done.Sub(ex.due)
		lat = append(lat, ms(l))
		handler = append(handler, float64(ex.resp.WallNS)/1e6)
		if float64(l)*speed <= float64(serveSLO) {
			within++
		}
		instrs += int64(s.kernels[ex.k].instrs)
		static += int64(ex.resp.Report.StaticConflicts)
		spills += int64(ex.resp.Report.SpillStores + ex.resp.Report.SpillReloads)
		cycles += ex.resp.Sim.Cycles
	}
	// wall_s: the span from the first due time to the last completion of
	// each one-second round of the schedule.
	for lo := 0; lo+uniqueRate <= len(exs); lo += uniqueRate {
		end := exs[lo].done
		for _, ex := range exs[lo : lo+uniqueRate] {
			if ex.done.After(end) {
				end = ex.done
			}
		}
		roundSpan = append(roundSpan, end.Sub(exs[lo].due).Seconds())
	}
	if len(roundSpan) == 0 {
		roundSpan = []float64{measured}
	}
	fmt.Printf("serve-unique: requests=%d ok=%d lag_p50=%.3fms lag_p99=%.3fms full_hit_rate=%.4f\n",
		t.attempted, len(good), quantile(lags, 0.5), quantile(lags, 0.99), s.d.srv.Cache().Stats().FullHitRate())
	r := t.newResult()
	r.set("setup_s", setupS)
	r.set("wall_s", median(roundSpan))
	r.set("throughput_instrs_per_s", float64(instrs)/measured)
	r.set("throughput_rps", float64(len(good))/measured)
	r.set("compile_p50_ms", quantile(handler, 0.50))
	r.set("compile_p99_ms", quantile(handler, 0.99))
	r.set("latency_p50_ms", quantile(lat, 0.50))
	r.set("latency_p99_ms", quantile(lat, 0.99))
	r.set("slo_attainment", float64(within)/float64(t.attempted))
	r.set("success_frac", t.successFrac())
	r.set("static_conflicts", float64(static))
	r.set("spill_instrs", float64(spills))
	r.set("sim_cycles", float64(cycles))
	r.set("peak_rss_mb", peakRSSMiB())
	r.set("alloc_bytes_per_instr", float64(heapBytes)/float64(instrs))
	return r, nil
}

// traceServeUnique is serve-unique's traced run: the open loop above with
// the admission gauges sampled, then cold replays of fresh kernels through
// the handler split by layer, and the phase runner over the same kernels.
func traceServeUnique(cfg runConfig, s *uniqueSetup, t *tally, good []exchange, lags []float64, peaks *peakSampler) (*result, error) {
	var sendLat []float64
	for _, ex := range good {
		sendLat = append(sendLat, ms(ex.done.Sub(ex.sent)))
	}
	st := s.d.srv.Statz()
	cs := s.d.srv.Cache().Stats()

	// Cold replays: kernels never sent, each replayed once, with the
	// isolated compile on its own fresh cache so it is cold too.
	replays, err := uniqueKernels(cfg.seed, len(s.kernels)+uniqueWarmup, len(s.kernels)/4+1)
	if err != nil {
		return nil, err
	}
	var rs requestSplit
	var pt phaseTimes
	for _, k := range replays {
		t.attempted++
		if err := rs.replay(s.d.srv, k, compilecache.New()); err != nil {
			t.fail("replay: %v", err)
			continue
		}
		if _, _, err := runPhases(k.fn, serveOptions(k.file, nil), &pt); err != nil {
			t.fail("phase runner: %v", err)
		}
	}
	r := t.newResult()
	setLayerDefaults(r)
	rs.set(r, median(sendLat))
	pt.setPhaseMetrics(r, 1)
	r.set("sim.self_ms", median(rs.simulate))
	r.set("sim.steps", float64(rs.simSteps)/float64(len(rs.simulate)))
	r.set("server.statz_total_p50_ms", st.Phases["total"].P50MS)
	r.set("server.inflight_peak", float64(peaks.inflight.Load()))
	r.set("server.queued_peak", float64(peaks.queued.Load()))
	r.set("server.rejected", float64(st.Requests.Rejected))
	r.set("bench.lag_p99_ms", quantile(lags, 0.99))
	r.set("core.compiles", float64(cs.FullHits+cs.FullMisses))
	setCacheMetrics(r, cs)
	return r, nil
}
