// Package server implements prescountd's compile-as-a-service layer: an
// HTTP daemon that runs the Figure-4 register-allocation pipeline on
// demand. It is the serving-path counterpart of the batch CLIs — the same
// internal/core pipeline behind
//
//	POST /v1/compile          one function (bare or single-function module)
//	POST /v1/compile/module   a whole module, fanned out over internal/pool
//	GET  /healthz             liveness (503 while draining)
//	GET  /statz               cache hit rates, gauges, latency histograms
//
// with the three properties a long-running service needs that the CLIs do
// not:
//
//   - Admission control: at most MaxInFlight compiles run concurrently and
//     at most MaxQueue requests wait behind them; beyond that the server
//     answers 429 with Retry-After instead of queueing without bound.
//   - Per-request deadlines: every request carries a context that expires
//     after its deadline (client-shortenable via timeout_ms), threaded into
//     core.CompileContext so a dead client stops burning CPU at the next
//     phase boundary. Expired compiles answer 504.
//   - A shared, byte-capped compile cache: repeated kernel submissions hit
//     the content-addressed cache from PR 3, with LRU eviction keeping the
//     daemon's footprint bounded (compilecache.NewLimited).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"prescount/internal/bankfile"
	"prescount/internal/compilecache"
	"prescount/internal/conflict"
	"prescount/internal/core"
	"prescount/internal/diskcache"
	"prescount/internal/ir"
	"prescount/internal/portfolio"
	"prescount/internal/regalloc"
	"prescount/internal/sim"
)

// Config tunes the daemon. The zero value is usable: Normalize fills every
// field with a production-shaped default.
type Config struct {
	// MaxInFlight bounds concurrently executing compile requests
	// (default: GOMAXPROCS).
	MaxInFlight int
	// MaxQueue bounds requests waiting for an in-flight slot; beyond it
	// the server answers 429 (default: 4 * MaxInFlight).
	MaxQueue int
	// MaxBody caps the request body in bytes (default 8 MiB).
	MaxBody int64
	// DefaultTimeout is the per-request deadline when the client does not
	// pass timeout_ms (default 10s).
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested deadlines (default 60s).
	MaxTimeout time.Duration
	// CacheMaxBytes caps the shared compile cache; <= 0 means unlimited
	// (the CLI policy — a daemon should set a cap).
	CacheMaxBytes int64
	// Workers bounds the per-request module fan-out (core.Options.Workers;
	// default 0 = GOMAXPROCS).
	Workers int
	// DiskCacheDir, when non-empty, layers a persistent on-disk result
	// store under the in-memory compile cache: full-layer misses consult
	// the directory before compiling, and fresh results are written behind.
	// The directory survives restarts — a warm fleet node restarted with
	// the same dir serves its old working set from disk.
	DiskCacheDir string
	// DiskCacheBytes caps the on-disk store with mtime-LRU eviction
	// sweeps; <= 0 means unlimited.
	DiskCacheBytes int64
}

// Normalize returns cfg with defaults filled in.
func (cfg Config) Normalize() Config {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 4 * cfg.MaxInFlight
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = 8 << 20
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 10 * time.Second
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 60 * time.Second
	}
	return cfg
}

// Server is the compile service. Create with New, mount Handler on an
// http.Server (or use cmd/prescountd).
type Server struct {
	cfg     Config
	cache   *compilecache.Cache
	metrics *metrics

	// disk is the persistent second cache level; nil when not configured.
	disk *diskcache.Store

	// slots is the in-flight semaphore: a request holds one token for the
	// duration of its compile.
	slots chan struct{}
	// queued counts requests waiting for a token; bounded by MaxQueue.
	queued atomic.Int64
	// draining flips healthz to 503 during graceful shutdown.
	draining atomic.Bool
}

// New returns a Server with the given configuration and a fresh shared
// compile cache (byte-capped when cfg.CacheMaxBytes > 0). When
// cfg.DiskCacheDir is set the directory is opened (or created) as the
// persistent second cache level; an unusable directory is the only error.
func New(cfg Config) (*Server, error) {
	cfg = cfg.Normalize()
	s := &Server{
		cfg:     cfg,
		cache:   compilecache.NewLimited(cfg.CacheMaxBytes),
		metrics: newMetrics(),
		slots:   make(chan struct{}, cfg.MaxInFlight),
	}
	if cfg.DiskCacheDir != "" {
		store, err := diskcache.Open(cfg.DiskCacheDir, cfg.DiskCacheBytes)
		if err != nil {
			return nil, fmt.Errorf("disk cache: %w", err)
		}
		s.disk = store
		s.cache.SetFullBacking(core.NewDiskBacking(store))
	}
	return s, nil
}

// Config returns the normalized configuration.
func (s *Server) Config() Config { return s.cfg }

// Cache exposes the shared compile cache (for stats and tests).
func (s *Server) Cache() *compilecache.Cache { return s.cache }

// Disk exposes the persistent store (nil when not configured).
func (s *Server) Disk() *diskcache.Store { return s.disk }

// Close flushes and closes the persistent store (if any). Call it after the
// HTTP listener has drained: queued write-behind entries land on disk so
// the next start of this node serves them as hits.
func (s *Server) Close() {
	if s.disk != nil {
		s.disk.Close()
	}
}

// SetDraining marks the server as draining: healthz answers 503 so load
// balancers stop routing, while in-flight requests finish normally.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Handler returns the daemon's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/compile", func(w http.ResponseWriter, r *http.Request) {
		s.serveCompile(w, r, false)
	})
	mux.HandleFunc("/v1/compile/module", func(w http.ResponseWriter, r *http.Request) {
		s.serveCompile(w, r, true)
	})
	mux.HandleFunc("/v1/compile/batch", s.serveBatch)
	mux.HandleFunc("/healthz", s.serveHealthz)
	mux.HandleFunc("/statz", s.serveStatz)
	return mux
}

// Connection timeouts of the daemon and router listeners (NewHTTPServer).
const (
	// ReadHeaderTimeout bounds how long a connection may take to send its
	// request headers; a client that stalls mid-header is disconnected
	// instead of pinning a goroutine and a file descriptor forever.
	ReadHeaderTimeout = 5 * time.Second
	// IdleTimeout closes keep-alive connections idle between requests.
	IdleTimeout = 2 * time.Minute
)

// NewHTTPServer returns an http.Server for h on addr with the listener
// timeouts above. prescountd and prescountrouter both serve through it.
func NewHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: ReadHeaderTimeout,
		IdleTimeout:       IdleTimeout,
	}
}

// Error codes of the JSON error envelope (docs/API.md).
const (
	CodeBadRequest = "bad_request" // 400: malformed envelope/options
	CodeParse      = "parse"       // 400: MIR did not parse
	CodeCompile    = "compile"     // 422: pipeline rejected the function
	CodeSimulate   = "simulate"    // 422: allocated code failed simulation
	CodeSaturated  = "saturated"   // 429: admission queue full
	CodeDeadline   = "deadline"    // 504: request deadline expired
	CodeTooLarge   = "too_large"   // 413: body over MaxBody
)

// errorResponse is the JSON error envelope.
type errorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// CompileRequest is the JSON request envelope of both compile endpoints.
// Raw-MIR requests (any content type but application/json) put the source
// in the body and these fields in query parameters.
type CompileRequest struct {
	// MIR is the textual MIR source: a bare function, or a module.
	MIR string `json:"mir"`
	// Regs/Banks/Subgroups describe the register file (defaults 32/2/1;
	// subgroups > 1 enables the DSA subgroup-splitting path).
	Regs      int `json:"regs,omitempty"`
	Banks     int `json:"banks,omitempty"`
	Subgroups int `json:"subgroups,omitempty"`
	// Method is non | bcr | brc | bpc | binpack | coloring (default bpc),
	// or a portfolio mode: "portfolio" races every method and keeps the
	// cheapest result, "auto" predicts the method from function features and
	// races only when the selector is unconfident. Portfolio modes are
	// accepted on the compile endpoints, not in batch entries.
	Method string `json:"method,omitempty"`
	// THRES overrides Algorithm 1's pressure threshold (0 = default).
	THRES float64 `json:"thres,omitempty"`
	// LinearScan swaps in the linear-scan allocator.
	LinearScan bool `json:"linear_scan,omitempty"`
	// ColoringTimeoutMS bounds the coloring allocator's work budget (method
	// coloring, or the coloring candidate of a portfolio race); 0 keeps the
	// allocator default. The budget is deterministic — the same source bails
	// at the same point regardless of machine load — while the request
	// deadline itself still cancels coloring at phase boundaries, so a
	// coloring request can 504 but never hang.
	ColoringTimeoutMS int64 `json:"coloring_timeout_ms,omitempty"`
	// Verify compiles at core.CheckPhases: the phase-boundary verifier runs
	// between pipeline stages. Checked compiles bypass the shared cache.
	Verify bool `json:"verify,omitempty"`
	// Validate compiles at core.CheckValidate: the verifier plus the
	// translation validator, which fails the compile with a T-rule
	// diagnostic when the result diverges from the pre-allocation MIR.
	Validate bool `json:"validate,omitempty"`
	// Simulate executes the allocated code and attaches dynamic metrics.
	Simulate bool `json:"simulate,omitempty"`
	// VLIW selects the dual-issue cycle model for simulation.
	VLIW bool `json:"vliw,omitempty"`
	// EmitMIR includes the allocated MIR text in the response.
	EmitMIR bool `json:"emit_mir,omitempty"`
	// TimeoutMS shortens the request deadline below the server default
	// (capped at the server maximum).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// ReportJSON mirrors conflict.Report with stable JSON names.
type ReportJSON struct {
	Instrs             int     `json:"instrs"`
	ConflictRelevant   int     `json:"conflict_relevant"`
	StaticConflicts    int     `json:"static_conflicts"`
	ConflictInstrs     int     `json:"conflict_instrs"`
	WeightedConflicts  float64 `json:"weighted_conflicts"`
	SubgroupViolations int     `json:"subgroup_violations"`
	Copies             int     `json:"copies"`
	SpillStores        int     `json:"spill_stores"`
	SpillReloads       int     `json:"spill_reloads"`
}

func reportJSON(r *conflict.Report) ReportJSON {
	return ReportJSON{
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

// AllocJSON carries the allocator statistics of one function.
type AllocJSON struct {
	SpilledVRegs int `json:"spilled_vregs"`
	SpillStores  int `json:"spill_stores"`
	SpillReloads int `json:"spill_reloads"`
	LoopSplits   int `json:"loop_splits"`
	Evictions    int `json:"evictions"`
	Remats       int `json:"remats"`
	BankBreaks   int `json:"bank_breaks"`
	// Rescues counts binpacking second-chance re-queues (method binpack).
	Rescues int `json:"rescues,omitempty"`
	// ColoringBailed reports that coloring exhausted its work budget and the
	// function fell back to linear scan (method coloring).
	ColoringBailed bool `json:"coloring_bailed,omitempty"`
}

func allocJSON(a *regalloc.Result) AllocJSON {
	return AllocJSON{
		SpilledVRegs:   a.SpilledVRegs,
		SpillStores:    a.SpillStores,
		SpillReloads:   a.SpillReloads,
		LoopSplits:     a.LoopSplits,
		Evictions:      a.Evictions,
		Remats:         a.Remats,
		BankBreaks:     a.BankBreaks,
		Rescues:        a.Rescues,
		ColoringBailed: a.ColoringBailed,
	}
}

// SimJSON carries the dynamic metrics of a simulated run.
type SimJSON struct {
	Steps             int64  `json:"steps"`
	Cycles            int64  `json:"cycles"`
	DynamicConflicts  int64  `json:"dynamic_conflicts"`
	ConflictInstances int64  `json:"conflict_instances"`
	MemChecksum       string `json:"mem_checksum"`
}

// FuncResponse is the per-function result.
type FuncResponse struct {
	Func   string     `json:"func"`
	MIR    string     `json:"mir,omitempty"`
	Report ReportJSON `json:"report"`
	Alloc  AllocJSON  `json:"alloc"`
	Sim    *SimJSON   `json:"sim,omitempty"`
	// Method attributes the winning allocator of a portfolio/auto request.
	Method string `json:"method,omitempty"`
	// Selected reports the winner was predicted by the feature selector
	// without racing (method=auto only).
	Selected bool `json:"selected,omitempty"`
}

// CompileResponse is the /v1/compile success body.
type CompileResponse struct {
	FuncResponse
	WallNS int64 `json:"wall_ns"`
}

// ModuleResponse is the /v1/compile/module success body; Funcs are in
// sorted name order.
type ModuleResponse struct {
	Module string         `json:"module"`
	Funcs  []FuncResponse `json:"funcs"`
	Totals ReportJSON     `json:"totals"`
	WallNS int64          `json:"wall_ns"`
}

func (s *Server) serveHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, `{"status":"draining"}`+"\n")
		return
	}
	io.WriteString(w, `{"status":"ok"}`+"\n")
}

func (s *Server) serveStatz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.Statz())
}

// serveCompile is the shared handler of both compile endpoints; module
// selects the whole-module variant.
func (s *Server) serveCompile(w http.ResponseWriter, r *http.Request, module bool) {
	total := time.Now()
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.fail(w, http.StatusMethodNotAllowed, CodeBadRequest, "POST only")
		return
	}
	s.metrics.total.Add(1)

	req, status, err := s.decodeRequest(w, r)
	if err != nil {
		code := CodeBadRequest
		if status == http.StatusRequestEntityTooLarge {
			code = CodeTooLarge
		}
		s.fail(w, status, code, err.Error())
		return
	}
	opts, pmode, err := s.compileOptions(req)
	if err != nil {
		s.fail(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	s.metrics.countMethod(methodLabel(req.Method))

	// The request deadline covers queueing AND compiling: a request that
	// spent its whole budget waiting for a slot answers 504 immediately
	// rather than starting a compile nobody is waiting for.
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
		if timeout > s.cfg.MaxTimeout {
			timeout = s.cfg.MaxTimeout
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	if ok := s.admit(w, ctx); !ok {
		return
	}
	defer func() { <-s.slots }()

	// Parse phase.
	parseStart := time.Now()
	mod, err := parseSource(req.MIR)
	s.metrics.phase("parse").observe(time.Since(parseStart))
	if err != nil {
		s.metrics.parseErrors.Add(1)
		s.fail(w, http.StatusBadRequest, CodeParse, err.Error())
		return
	}
	if !module && len(mod.Funcs) > 1 {
		s.fail(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Sprintf("%d functions in request; use /v1/compile/module", len(mod.Funcs)))
		return
	}

	// Compile phase. Portfolio modes route through internal/portfolio (every
	// candidate shares this server's cache, so the method-independent prefix
	// compiles once per function); single methods take the core path with its
	// full-result cache.
	compileStart := time.Now()
	var mres *core.ModuleResult
	var pres *portfolio.ModuleResult
	if pmode != "" {
		pres, err = portfolio.CompileModule(ctx, mod, opts, portfolio.Config{
			Auto: pmode == portfolio.ModeAuto,
		})
	} else {
		mres, err = core.CompileModuleContext(ctx, mod, opts)
	}
	s.metrics.phase("compile").observe(time.Since(compileStart))
	if err != nil {
		if isDeadline(err) {
			s.metrics.deadlines.Add(1)
			s.fail(w, http.StatusGatewayTimeout, CodeDeadline, err.Error())
			return
		}
		s.metrics.compileErrors.Add(1)
		s.fail(w, http.StatusUnprocessableEntity, CodeCompile, err.Error())
		return
	}
	if pres != nil {
		s.metrics.countRaceOutcome(pres.Wins, pres.Selected)
	}

	// Optional simulate phase.
	funcs := make([]FuncResponse, 0, len(mod.Funcs))
	for _, f := range mod.SortedFuncs() {
		var res *core.Result
		fr := FuncResponse{Func: f.Name}
		if pres != nil {
			rr := pres.PerFunc[f.Name]
			res = rr.Result
			fr.Method = rr.Winner.String()
			fr.Selected = rr.Selected
		} else {
			res = mres.PerFunc[f.Name]
		}
		fr.Report = reportJSON(res.Report)
		fr.Alloc = allocJSON(res.Alloc)
		if req.EmitMIR {
			fr.MIR = ir.Print(res.Func)
		}
		if req.Simulate {
			simStart := time.Now()
			sr, serr := sim.Run(res.Func, sim.Options{File: opts.File, VLIW: req.VLIW})
			s.metrics.phase("simulate").observe(time.Since(simStart))
			if serr != nil {
				s.metrics.compileErrors.Add(1)
				s.fail(w, http.StatusUnprocessableEntity, CodeSimulate, serr.Error())
				return
			}
			fr.Sim = &SimJSON{
				Steps:             sr.Steps,
				Cycles:            sr.Cycles,
				DynamicConflicts:  sr.DynamicConflicts,
				ConflictInstances: sr.ConflictInstances,
				MemChecksum:       fmt.Sprintf("%016x", sr.MemChecksum),
			}
		}
		funcs = append(funcs, fr)
	}

	s.metrics.ok.Add(1)
	wall := time.Since(total)
	s.metrics.phase("total").observe(wall)
	if module {
		resp := ModuleResponse{
			Module: mod.Name,
			Funcs:  funcs,
			WallNS: wall.Nanoseconds(),
		}
		if pres != nil {
			resp.Totals = reportJSON(&pres.Totals)
		} else {
			resp.Totals = reportJSON(&mres.Totals)
		}
		s.respond(w, http.StatusOK, resp)
		return
	}
	s.respond(w, http.StatusOK, CompileResponse{FuncResponse: funcs[0], WallNS: wall.Nanoseconds()})
}

// admit acquires an in-flight slot, waiting in the bounded queue. It
// answers 429 (queue full) or 504 (deadline expired while queued) itself
// and returns false; on true the caller must release the slot.
func (s *Server) admit(w http.ResponseWriter, ctx context.Context) bool {
	select {
	case s.slots <- struct{}{}:
		return true
	default:
	}
	if q := s.queued.Add(1); q > int64(s.cfg.MaxQueue) {
		s.queued.Add(-1)
		s.metrics.rejected.Add(1)
		// Retry-After names the default deadline as a conservative "the
		// queue ahead of you is full" hint.
		w.Header().Set("Retry-After", strconv.Itoa(int(s.cfg.DefaultTimeout/time.Second)+1))
		s.fail(w, http.StatusTooManyRequests, CodeSaturated,
			fmt.Sprintf("%d in flight and %d queued; retry later", s.cfg.MaxInFlight, s.cfg.MaxQueue))
		return false
	}
	defer s.queued.Add(-1)
	select {
	case s.slots <- struct{}{}:
		return true
	case <-ctx.Done():
		s.metrics.deadlines.Add(1)
		s.fail(w, http.StatusGatewayTimeout, CodeDeadline, "deadline expired while queued")
		return false
	}
}

// decodeRequest reads either envelope: JSON (application/json) or raw MIR
// with query-parameter options.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request) (*CompileRequest, int, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBody))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return nil, http.StatusRequestEntityTooLarge,
				fmt.Errorf("body exceeds %d bytes", s.cfg.MaxBody)
		}
		return nil, http.StatusBadRequest, fmt.Errorf("reading body: %w", err)
	}
	req := &CompileRequest{}
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/json") {
		if err := json.Unmarshal(body, req); err != nil {
			return nil, http.StatusBadRequest, fmt.Errorf("request JSON: %w", err)
		}
	} else {
		req.MIR = string(body)
		if err := optionsFromQuery(req, r); err != nil {
			return nil, http.StatusBadRequest, err
		}
	}
	if strings.TrimSpace(req.MIR) == "" {
		return nil, http.StatusBadRequest, errors.New("empty MIR source")
	}
	return req, 0, nil
}

// optionsFromQuery fills req from URL query parameters (the raw-MIR
// convenience envelope: `curl --data-binary @kernel.mir '…/v1/compile?method=bpc'`).
func optionsFromQuery(req *CompileRequest, r *http.Request) error {
	q := r.URL.Query()
	intq := func(name string, dst *int) error {
		if v := q.Get(name); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return fmt.Errorf("query %s=%q: %w", name, v, err)
			}
			*dst = n
		}
		return nil
	}
	boolq := func(name string, dst *bool) error {
		if v := q.Get(name); v != "" {
			b, err := strconv.ParseBool(v)
			if err != nil {
				return fmt.Errorf("query %s=%q: %w", name, v, err)
			}
			*dst = b
		}
		return nil
	}
	for _, e := range []error{
		intq("regs", &req.Regs), intq("banks", &req.Banks), intq("subgroups", &req.Subgroups),
		boolq("simulate", &req.Simulate), boolq("vliw", &req.VLIW),
		boolq("emit_mir", &req.EmitMIR), boolq("linear_scan", &req.LinearScan),
		boolq("verify", &req.Verify), boolq("validate", &req.Validate),
	} {
		if e != nil {
			return e
		}
	}
	if v := q.Get("method"); v != "" {
		req.Method = v
	}
	if v := q.Get("thres"); v != "" {
		t, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return fmt.Errorf("query thres=%q: %w", v, err)
		}
		req.THRES = t
	}
	if v := q.Get("timeout_ms"); v != "" {
		t, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return fmt.Errorf("query timeout_ms=%q: %w", v, err)
		}
		req.TimeoutMS = t
	}
	if v := q.Get("coloring_timeout_ms"); v != "" {
		t, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return fmt.Errorf("query coloring_timeout_ms=%q: %w", v, err)
		}
		req.ColoringTimeoutMS = t
	}
	return nil
}

// methodLabel normalizes a request's method string for the per-method
// request counters ("" is the default method).
func methodLabel(m string) string {
	if m == "" {
		return core.MethodBPC.String()
	}
	return m
}

// compileOptions maps the request envelope onto core.Options, wiring in
// the shared cache and the worker bound. The second return is the portfolio
// mode ("portfolio"/"auto", empty for single-method requests): portfolio
// modes are not core methods — serveCompile routes them through
// internal/portfolio, with the returned options as the per-candidate base.
func (s *Server) compileOptions(req *CompileRequest) (core.Options, string, error) {
	method := core.MethodBPC
	pmode := ""
	switch {
	case req.Method == "":
	case portfolio.IsMode(req.Method):
		pmode = req.Method
	default:
		m, ok := core.ParseMethod(req.Method)
		if !ok {
			return core.Options{}, "", fmt.Errorf("unknown method %q (want non, bcr, brc, bpc, binpack, coloring, portfolio or auto)", req.Method)
		}
		method = m
	}
	if req.ColoringTimeoutMS < 0 {
		return core.Options{}, "", fmt.Errorf("negative coloring_timeout_ms %d", req.ColoringTimeoutMS)
	}
	regs, banks, subgroups := req.Regs, req.Banks, req.Subgroups
	if regs == 0 {
		regs = 32
	}
	if banks == 0 {
		banks = 2
	}
	if subgroups == 0 {
		subgroups = 1
	}
	if regs < 0 || banks < 0 || subgroups < 0 {
		return core.Options{}, "", fmt.Errorf("negative register file parameter (regs=%d banks=%d subgroups=%d)", regs, banks, subgroups)
	}
	file := bankfile.Config{NumRegs: regs, NumBanks: banks, NumSubgroups: subgroups, ReadPorts: 1}
	if err := file.Normalize().Validate(); err != nil {
		return core.Options{}, "", fmt.Errorf("register file: %w", err)
	}
	check := core.CheckNone
	if req.Verify {
		check = core.CheckPhases
	}
	if req.Validate {
		check = core.CheckValidate
	}
	return core.Options{
		File:            file,
		Method:          method,
		Subgroups:       subgroups > 1,
		THRES:           req.THRES,
		LinearScan:      req.LinearScan,
		ColoringTimeout: time.Duration(req.ColoringTimeoutMS) * time.Millisecond,
		Check:           check,
		Workers:         s.cfg.Workers,
		Cache:           s.cache,
	}, pmode, nil
}

// parseSource reads a module, falling back to a bare function, mirroring
// prescountc's input handling.
func parseSource(src string) (*ir.Module, error) {
	mod, err := ir.ParseModule(src)
	if err != nil {
		return nil, err
	}
	if len(mod.Funcs) == 0 {
		f, ferr := ir.Parse(src)
		if ferr != nil {
			return nil, ferr
		}
		mod.Add(f)
	}
	return mod, nil
}

func isDeadline(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

func (s *Server) fail(w http.ResponseWriter, status int, code, msg string) {
	s.respond(w, status, errorResponse{Error: msg, Code: code})
}

func (s *Server) respond(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(body)
}
