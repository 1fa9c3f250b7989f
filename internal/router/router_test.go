package router

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"prescount/internal/ir"
	"prescount/internal/server"
	"prescount/internal/workload"
)

const kernelMIR = `func @axpy {
 entry:
  x1 = iconst 0
  %0:fp = fload x1, 0
  %1:fp = fload x1, 1
  %2:fp = fadd %0, %1
  fstore %2, x1, 2
  ret
}
`

// fleet spawns n in-process daemons and a router over them.
func fleet(t *testing.T, n int, cfg server.Config) ([]*server.Server, []*httptest.Server, *Router, *httptest.Server) {
	t.Helper()
	backends := make([]*server.Server, n)
	tss := make([]*httptest.Server, n)
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		s, err := server.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		backends[i] = s
		tss[i] = httptest.NewServer(s.Handler())
		urls[i] = tss[i].URL
		t.Cleanup(tss[i].Close)
		t.Cleanup(s.Close)
	}
	r, err := New(Config{
		Backends:    urls,
		HealthEvery: time.Hour, // tests drive probes via CheckNow
		RetryBase:   time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Stop)
	rts := httptest.NewServer(r.Handler())
	t.Cleanup(rts.Close)
	return backends, tss, r, rts
}

func postCompile(t *testing.T, url string, req server.CompileRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

// TestRouterAffinity pins fingerprint affinity: every resubmission of one
// kernel lands on the same backend, and its cache turns them into hits.
func TestRouterAffinity(t *testing.T) {
	backends, _, _, rts := fleet(t, 3, server.Config{MaxInFlight: 1})
	for i := 0; i < 6; i++ {
		resp, body := postCompile(t, rts.URL, server.CompileRequest{MIR: kernelMIR, Method: "bpc"})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	served := 0
	for _, b := range backends {
		st := b.Statz()
		if st.Requests.Total > 0 {
			served++
			if st.Cache.FullHits != 5 || st.Cache.FullMisses != 1 {
				t.Fatalf("owning backend cache %+v, want 5 hits / 1 miss", st.Cache)
			}
		}
	}
	if served != 1 {
		t.Fatalf("%d backends served one kernel, want 1 (affinity broken)", served)
	}
}

// TestRouterRenamedKernelSameBackend pins name-blind routing: a renamed
// copy of a kernel hashes to the same backend and hits its cache.
func TestRouterRenamedKernelSameBackend(t *testing.T) {
	backends, _, _, rts := fleet(t, 3, server.Config{MaxInFlight: 1})
	renamed := strings.Replace(kernelMIR, "@axpy", "@saxpy", 1)
	for _, mir := range []string{kernelMIR, renamed} {
		if resp, body := postCompile(t, rts.URL, server.CompileRequest{MIR: mir, Method: "bpc"}); resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
	}
	for _, b := range backends {
		st := b.Statz()
		if st.Requests.Total > 0 && (st.Cache.FullHits != 1 || st.Cache.FullMisses != 1) {
			t.Fatalf("renamed kernel missed the warm node: %+v", st.Cache)
		}
	}
}

// TestBackendDeathFailover is the first edge case of the issue: a backend
// dying mid-stream must not surface as a 5xx — the router demotes it and
// retries the ring successor.
func TestBackendDeathFailover(t *testing.T) {
	backends, tss, r, rts := fleet(t, 3, server.Config{MaxInFlight: 1})
	// Find the kernel's owning backend and kill it.
	resp, _ := postCompile(t, rts.URL, server.CompileRequest{MIR: kernelMIR, Method: "bpc"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seed: status %d", resp.StatusCode)
	}
	owner := -1
	for i, b := range backends {
		if b.Statz().Requests.Total > 0 {
			owner = i
		}
	}
	if owner < 0 {
		t.Fatal("no backend served the seed")
	}
	tss[owner].Close()

	// The router still believes the node is healthy; the next request hits
	// the dead node, fails the connection, and must fail over transparently.
	resp, body := postCompile(t, rts.URL, server.CompileRequest{MIR: kernelMIR, Method: "bpc"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failover: status %d (want 200 via successor): %s", resp.StatusCode, body)
	}
	st := r.Statz()
	if st.RetryHops == 0 {
		t.Fatal("no retry hop recorded")
	}
	if st.Backends[owner].State != "down" {
		t.Fatalf("dead backend still %q", st.Backends[owner].State)
	}
	// Subsequent requests skip the dead node outright: no more failures
	// accrue against it.
	failuresBefore := st.Backends[owner].Failures
	for i := 0; i < 3; i++ {
		if resp, _ := postCompile(t, rts.URL, server.CompileRequest{MIR: kernelMIR, Method: "bpc"}); resp.StatusCode != http.StatusOK {
			t.Fatalf("post-demotion request %d failed: %d", i, resp.StatusCode)
		}
	}
	if got := r.Statz().Backends[owner].Failures; got != failuresBefore {
		t.Fatalf("router kept dialing the dead node (%d -> %d failures)", failuresBefore, got)
	}
}

// TestAllDraining503 is the second edge case: with every backend draining
// the router answers 503 with Retry-After — the load-balancer-friendly
// "come back later", not an error.
func TestAllDraining503(t *testing.T) {
	backends, _, r, rts := fleet(t, 3, server.Config{MaxInFlight: 1})
	for _, b := range backends {
		b.SetDraining(true)
	}
	r.CheckNow()

	resp, body := postCompile(t, rts.URL, server.CompileRequest{MIR: kernelMIR, Method: "bpc"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	// The router's own healthz mirrors the fleet state.
	hresp, err := http.Get(rts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("router healthz %d, want 503", hresp.StatusCode)
	}

	// Un-drain one node: traffic flows again.
	backends[0].SetDraining(false)
	r.CheckNow()
	resp, body = postCompile(t, rts.URL, server.CompileRequest{MIR: kernelMIR, Method: "bpc"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after undrain: status %d: %s", resp.StatusCode, body)
	}
}

// TestRouterBatch pins batch regrouping: entries spread across backends,
// come back in request order, and duplicates dedup on their shared node.
func TestRouterBatch(t *testing.T) {
	_, _, _, rts := fleet(t, 3, server.Config{MaxInFlight: 2})
	kernels := []string{
		kernelMIR,
		ir.Print(workload.RandomSized(51, 100)),
		ir.Print(workload.RandomSized(52, 100)),
		kernelMIR, // duplicate of 0
		"garbage that will not parse",
		ir.Print(workload.RandomSized(53, 100)),
	}
	entries := make([]server.CompileRequest, len(kernels))
	for i, k := range kernels {
		entries[i] = server.CompileRequest{MIR: k, Method: "bpc", EmitMIR: true}
	}
	payload, err := json.Marshal(server.BatchRequest{Entries: entries})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(rts.URL+"/v1/compile/batch", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	var br server.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != len(kernels) {
		t.Fatalf("%d results for %d entries", len(br.Results), len(kernels))
	}
	if br.Deduped != 1 {
		t.Fatalf("deduped = %d, want 1 (the repeated kernel)", br.Deduped)
	}
	for i, r := range br.Results {
		if i == 4 {
			if r.Error == nil || r.Error.Code != server.CodeParse {
				t.Fatalf("garbage entry: %+v, want parse error", r)
			}
			continue
		}
		if r.OK == nil {
			t.Fatalf("entry %d failed: %+v", i, r.Error)
		}
	}
	// Order check: each successful entry answers under its own function name.
	if br.Results[0].OK.Func != "axpy" || br.Results[3].OK.Func != "axpy" {
		t.Fatalf("duplicate entries misplaced: %q, %q", br.Results[0].OK.Func, br.Results[3].OK.Func)
	}
}

// TestRouterBatchSurvivesNodeDeath reroutes a dead node's sub-batch to the
// survivors inside the same request.
func TestRouterBatchSurvivesNodeDeath(t *testing.T) {
	backends, tss, _, rts := fleet(t, 3, server.Config{MaxInFlight: 2})
	// Kill one node before any traffic; the router hasn't probed yet, so
	// the batch's first round will dial it and must recover in-flight.
	dead := 1
	tss[dead].Close()
	_ = backends

	var entries []server.CompileRequest
	for seed := int64(61); seed < 73; seed++ {
		entries = append(entries, server.CompileRequest{
			MIR: ir.Print(workload.RandomSized(seed, 80)), Method: "bpc",
		})
	}
	payload, _ := json.Marshal(server.BatchRequest{Entries: entries})
	resp, err := http.Post(rts.URL+"/v1/compile/batch", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	var br server.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	for i, r := range br.Results {
		if r.OK == nil {
			t.Fatalf("entry %d failed despite 2 healthy nodes: %+v", i, r.Error)
		}
	}
}

// TestRouterModuleAffinity pins that module compiles route by module
// content: a resubmitted module lands on the backend that compiled it, and
// that backend serves every function from its cache's full layer.
func TestRouterModuleAffinity(t *testing.T) {
	_, tss, _, rts := fleet(t, 3, server.Config{MaxInFlight: 1})
	m := ir.NewModule("pair")
	for i, n := range []string{"alpha", "beta"} {
		f := workload.RandomSized(int64(40+i), 60)
		f.Name = n
		m.Add(f)
	}
	body, _ := json.Marshal(server.CompileRequest{MIR: ir.PrintModule(m), Method: "bpc"})
	statz := func() []server.Statz {
		out := make([]server.Statz, len(tss))
		for i, ts := range tss {
			resp, err := http.Get(ts.URL + "/statz")
			if err != nil {
				t.Fatal(err)
			}
			err = json.NewDecoder(resp.Body).Decode(&out[i])
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	var after [2][]server.Statz
	for i := range after {
		resp, err := http.Post(rts.URL+"/v1/compile/module", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post %d: module status %d", i, resp.StatusCode)
		}
		after[i] = statz()
	}
	owner := -1
	for i, st := range after[1] {
		if st.Requests.Total == 0 {
			continue
		}
		if owner >= 0 {
			t.Fatalf("backends %d and %d both served the module (affinity broken)", owner, i)
		}
		owner = i
	}
	if owner < 0 {
		t.Fatal("no backend served the module")
	}
	if n := after[1][owner].Requests.Total; n != 2 {
		t.Fatalf("owning backend served %d requests, want 2", n)
	}
	first, second := after[0][owner].Cache, after[1][owner].Cache
	if hits, misses := second.FullHits-first.FullHits, second.FullMisses-first.FullMisses; hits != 2 || misses != 0 {
		t.Fatalf("second post: %d full hits / %d misses, want 2 / 0", hits, misses)
	}
}
