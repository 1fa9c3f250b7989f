package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"prescount/internal/core"
	"prescount/internal/ir"
	"prescount/internal/sim"
)

// POST /v1/compile/batch compiles many independent kernels in one request.
// The batch is the fleet's amortization unit: identical (fingerprint,
// options) entries are compiled once and fanned back to every duplicate,
// and the unique remainder shares the server's admission-controlled worker
// slots instead of racing through the queue as separate requests.

// BatchRequest is the /v1/compile/batch envelope. Each entry is an
// independent single-function CompileRequest; per-entry TimeoutMS is
// ignored (the batch-level deadline covers every entry).
type BatchRequest struct {
	Entries []CompileRequest `json:"entries"`
	// TimeoutMS bounds the whole batch (capped at the server maximum).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// BatchEntryResult is one entry's outcome, at the entry's request index.
// Exactly one of OK / Error is set.
type BatchEntryResult struct {
	OK *FuncResponse `json:"ok,omitempty"`
	// Error carries the same code vocabulary as the single-compile
	// endpoints; entries fail independently (a parse error in one entry
	// never fails its neighbors).
	Error *errorResponse `json:"error,omitempty"`
}

// BatchResponse is the /v1/compile/batch success body. Results are in
// request order, one per entry.
type BatchResponse struct {
	Results []BatchEntryResult `json:"results"`
	// Deduped counts entries satisfied by another identical entry of the
	// same batch (they share one compile).
	Deduped int   `json:"deduped"`
	WallNS  int64 `json:"wall_ns"`
}

// batchKey identifies one unique compile inside a batch: content
// fingerprint plus everything that can change the response payload.
type batchKey struct {
	fp       ir.Fingerprint
	digest   uint64
	simulate bool
	vliw     bool
	emitMIR  bool
	check    core.Check
}

// batchUnit is one unique compile and the entry indices it serves.
type batchUnit struct {
	f       *ir.Func
	opts    core.Options
	req     CompileRequest
	indices []int

	res *core.Result
	sim *SimJSON
	err *errorResponse
}

// maxBatchEntries bounds one batch request; bigger batches should be split
// by the client (or the router, which regroups per backend anyway).
const maxBatchEntries = 1024

func (s *Server) serveBatch(w http.ResponseWriter, r *http.Request) {
	total := time.Now()
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.fail(w, http.StatusMethodNotAllowed, CodeBadRequest, "POST only")
		return
	}
	s.metrics.total.Add(1)
	s.metrics.batchRequests.Add(1)

	req, status, err := decodeBatchRequest(w, r, s.cfg.MaxBody)
	if err != nil {
		code := CodeBadRequest
		if status == http.StatusRequestEntityTooLarge {
			code = CodeTooLarge
		}
		s.fail(w, status, code, err.Error())
		return
	}
	if len(req.Entries) == 0 {
		s.fail(w, http.StatusBadRequest, CodeBadRequest, "empty batch")
		return
	}
	if len(req.Entries) > maxBatchEntries {
		s.fail(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Sprintf("%d entries; max %d per batch", len(req.Entries), maxBatchEntries))
		return
	}
	s.metrics.batchEntries.Add(int64(len(req.Entries)))

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
		if timeout > s.cfg.MaxTimeout {
			timeout = s.cfg.MaxTimeout
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	// Resolve each entry to its options and parsed function, then collapse
	// identical compiles. Entries that fail to parse or validate get their
	// error recorded now and never occupy a worker.
	results := make([]BatchEntryResult, len(req.Entries))
	names := make([]string, len(req.Entries))
	units := map[batchKey]*batchUnit{}
	var order []*batchUnit
	for i := range req.Entries {
		e := &req.Entries[i]
		opts, f, entryErr := s.resolveBatchEntry(e)
		if entryErr != nil {
			results[i] = BatchEntryResult{Error: entryErr}
			continue
		}
		names[i] = f.Name
		k := batchKey{
			fp:       f.Fingerprint(),
			digest:   opts.FullDigest(),
			simulate: e.Simulate,
			vliw:     e.VLIW,
			emitMIR:  e.EmitMIR,
			check:    opts.Check,
		}
		if u, ok := units[k]; ok {
			u.indices = append(u.indices, i)
			continue
		}
		u := &batchUnit{f: f, opts: opts, req: *e, indices: []int{i}}
		units[k] = u
		order = append(order, u)
	}
	deduped := 0
	for _, u := range order {
		deduped += len(u.indices) - 1
	}
	s.metrics.batchDeduped.Add(int64(deduped))

	// Fan the unique compiles over the admission slots. Workers block for a
	// slot under the batch deadline rather than going through admit(): a
	// batch never 429s per entry — entries the deadline kills answer 504 in
	// place, the rest still return their results.
	workers := s.cfg.MaxInFlight
	if workers > len(order) {
		workers = len(order)
	}
	next := make(chan *batchUnit)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := range next {
				s.compileBatchUnit(ctx, u)
			}
		}()
	}
	for _, u := range order {
		next <- u
	}
	close(next)
	wg.Wait()

	ok := 0
	for _, u := range order {
		for _, i := range u.indices {
			results[i] = s.batchEntryResponse(u, req.Entries[i], names[i])
			if results[i].OK != nil {
				ok++
			}
		}
	}
	if ok > 0 {
		s.metrics.ok.Add(1)
	} else {
		s.metrics.compileErrors.Add(1)
	}
	wall := time.Since(total)
	s.metrics.phase("total").observe(wall)
	s.respond(w, http.StatusOK, BatchResponse{
		Results: results,
		Deduped: deduped,
		WallNS:  wall.Nanoseconds(),
	})
}

// resolveBatchEntry parses and validates one entry without compiling.
func (s *Server) resolveBatchEntry(e *CompileRequest) (core.Options, *ir.Func, *errorResponse) {
	opts, pmode, err := s.compileOptions(e)
	if err != nil {
		return core.Options{}, nil, &errorResponse{Error: err.Error(), Code: CodeBadRequest}
	}
	if pmode != "" {
		// Batch dedup keys entries by a single method's digest; racing has
		// none. Portfolio requests belong on the compile endpoints.
		return core.Options{}, nil, &errorResponse{
			Error: fmt.Sprintf("method %q is not valid in batch entries; use /v1/compile", pmode),
			Code:  CodeBadRequest,
		}
	}
	s.metrics.countMethod(methodLabel(e.Method))
	mod, err := parseSource(e.MIR)
	if err != nil {
		s.metrics.parseErrors.Add(1)
		return core.Options{}, nil, &errorResponse{Error: err.Error(), Code: CodeParse}
	}
	if len(mod.Funcs) != 1 {
		return core.Options{}, nil, &errorResponse{
			Error: fmt.Sprintf("%d functions in batch entry; each entry is one kernel", len(mod.Funcs)),
			Code:  CodeBadRequest,
		}
	}
	return opts, mod.SortedFuncs()[0], nil
}

// compileBatchUnit runs one unique compile (and optional simulation) inside
// an admission slot.
func (s *Server) compileBatchUnit(ctx context.Context, u *batchUnit) {
	select {
	case s.slots <- struct{}{}:
	case <-ctx.Done():
		s.metrics.deadlines.Add(1)
		u.err = &errorResponse{Error: "batch deadline expired before compile", Code: CodeDeadline}
		return
	}
	defer func() { <-s.slots }()

	start := time.Now()
	res, err := core.CompileContext(ctx, u.f, u.opts)
	s.metrics.phase("compile").observe(time.Since(start))
	if err != nil {
		if isDeadline(err) {
			s.metrics.deadlines.Add(1)
			u.err = &errorResponse{Error: err.Error(), Code: CodeDeadline}
			return
		}
		s.metrics.compileErrors.Add(1)
		u.err = &errorResponse{Error: err.Error(), Code: CodeCompile}
		return
	}
	u.res = res
	if u.req.Simulate {
		simStart := time.Now()
		sr, serr := sim.Run(res.Func, sim.Options{File: u.opts.File, VLIW: u.req.VLIW})
		s.metrics.phase("simulate").observe(time.Since(simStart))
		if serr != nil {
			s.metrics.compileErrors.Add(1)
			u.res = nil
			u.err = &errorResponse{Error: serr.Error(), Code: CodeSimulate}
			return
		}
		u.sim = &SimJSON{
			Steps:             sr.Steps,
			Cycles:            sr.Cycles,
			DynamicConflicts:  sr.DynamicConflicts,
			ConflictInstances: sr.ConflictInstances,
			MemChecksum:       fmt.Sprintf("%016x", sr.MemChecksum),
		}
	}
}

// batchEntryResponse renders one entry's view of its (possibly shared)
// unit. Duplicates may carry different symbol names for the same
// fingerprint; the emitted MIR is rematerialized under the entry's name.
func (s *Server) batchEntryResponse(u *batchUnit, e CompileRequest, name string) BatchEntryResult {
	if u.err != nil {
		return BatchEntryResult{Error: u.err}
	}
	fr := &FuncResponse{
		Func:   name,
		Report: reportJSON(u.res.Report),
		Alloc:  allocJSON(u.res.Alloc),
		Sim:    u.sim,
	}
	if e.EmitMIR {
		fn := u.res.Func
		if fn.Name != name {
			fn = fn.Clone()
			fn.Name = name
		}
		fr.MIR = ir.Print(fn)
	}
	return BatchEntryResult{OK: fr}
}

// decodeBatchRequest reads the JSON batch envelope under the body cap.
func decodeBatchRequest(w http.ResponseWriter, r *http.Request, maxBody int64) (*BatchRequest, int, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return nil, http.StatusRequestEntityTooLarge,
				fmt.Errorf("body exceeds %d bytes", maxBody)
		}
		return nil, http.StatusBadRequest, fmt.Errorf("reading body: %w", err)
	}
	req := &BatchRequest{}
	if err := json.Unmarshal(body, req); err != nil {
		return nil, http.StatusBadRequest, fmt.Errorf("request JSON: %w", err)
	}
	return req, 0, nil
}
