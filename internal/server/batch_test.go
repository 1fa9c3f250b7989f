package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"prescount/internal/ir"
	"prescount/internal/workload"
)

func postBatch(t *testing.T, url string, req BatchRequest) (*http.Response, *BatchResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/compile/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp, nil
	}
	br := &BatchResponse{}
	if err := json.NewDecoder(resp.Body).Decode(br); err != nil {
		t.Fatal(err)
	}
	return resp, br
}

// TestBatchMatchesSingleCompiles pins the batch contract: results arrive in
// request order and each is identical to the same kernel compiled alone.
func TestBatchMatchesSingleCompiles(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxInFlight: 2})
	kernels := []string{
		ir.Print(workload.RandomSized(31, 120)),
		ir.Print(workload.RandomSized(32, 80)),
		kernelMIR,
	}
	entries := make([]CompileRequest, len(kernels))
	for i, k := range kernels {
		entries[i] = CompileRequest{MIR: k, Method: "bpc", Banks: 4, EmitMIR: true}
	}
	resp, br := postBatch(t, ts.URL, BatchRequest{Entries: entries})
	if br == nil {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	if len(br.Results) != len(kernels) {
		t.Fatalf("%d results for %d entries", len(br.Results), len(kernels))
	}
	if br.Deduped != 0 {
		t.Fatalf("deduped = %d on distinct kernels", br.Deduped)
	}

	// A second server compiles each kernel individually; the per-entry
	// payloads must match byte for byte (reports, allocs, emitted MIR).
	_, single := newTestServer(t, Config{MaxInFlight: 2})
	for i, k := range kernels {
		got := br.Results[i]
		if got.OK == nil {
			t.Fatalf("entry %d failed: %+v", i, got.Error)
		}
		resp, body := postJSON(t, single.URL+"/v1/compile", CompileRequest{
			MIR: k, Method: "bpc", Banks: 4, EmitMIR: true,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("single compile %d: status %d: %s", i, resp.StatusCode, body)
		}
		var want CompileResponse
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatal(err)
		}
		gotJSON, _ := json.Marshal(got.OK)
		wantJSON, _ := json.Marshal(want.FuncResponse)
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("entry %d diverged from single compile:\nbatch:  %s\nsingle: %s", i, gotJSON, wantJSON)
		}
	}
}

// TestBatchDedup pins dedup attribution: identical entries share a compile
// and the response reports how many were collapsed.
func TestBatchDedup(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 2})
	entries := []CompileRequest{
		{MIR: kernelMIR, Method: "bpc"},
		{MIR: kernelMIR, Method: "bpc"},
		{MIR: kernelMIR, Method: "bpc"},
		{MIR: kernelMIR, Method: "non"}, // different options: no dedup
	}
	_, br := postBatch(t, ts.URL, BatchRequest{Entries: entries})
	if br == nil {
		t.Fatal("batch failed")
	}
	if br.Deduped != 2 {
		t.Fatalf("deduped = %d, want 2", br.Deduped)
	}
	for i, r := range br.Results {
		if r.OK == nil {
			t.Fatalf("entry %d failed: %+v", i, r.Error)
		}
	}
	// The cache saw exactly two unique compiles from this batch.
	if st := s.Cache().Stats(); st.FullMisses != 2 {
		t.Fatalf("FullMisses = %d, want 2 (unique compiles)", st.FullMisses)
	}
	if st := s.Statz(); st.Batch.Requests != 1 || st.Batch.Entries != 4 || st.Batch.Deduped != 2 {
		t.Fatalf("batch statz %+v", st.Batch)
	}
}

// TestBatchDedupAcrossNames pins that structurally identical kernels under
// different symbol names dedup but answer under their own names.
func TestBatchDedupAcrossNames(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxInFlight: 1})
	renamed := strings.Replace(kernelMIR, "@axpy", "@axpy_clone", 1)
	entries := []CompileRequest{
		{MIR: kernelMIR, Method: "bpc", EmitMIR: true},
		{MIR: renamed, Method: "bpc", EmitMIR: true},
	}
	_, br := postBatch(t, ts.URL, BatchRequest{Entries: entries})
	if br == nil {
		t.Fatal("batch failed")
	}
	if br.Deduped != 1 {
		t.Fatalf("deduped = %d, want 1 (name-blind fingerprint)", br.Deduped)
	}
	if br.Results[0].OK.Func != "axpy" || br.Results[1].OK.Func != "axpy_clone" {
		t.Fatalf("names %q, %q", br.Results[0].OK.Func, br.Results[1].OK.Func)
	}
	if !strings.Contains(br.Results[1].OK.MIR, "@axpy_clone") {
		t.Fatalf("deduped entry's MIR kept the sibling's name:\n%s", br.Results[1].OK.MIR)
	}
	if br.Results[0].OK.Report != br.Results[1].OK.Report {
		t.Fatal("shared unit produced different reports")
	}
}

// TestBatchPerEntryErrors pins error isolation: a bad entry fails alone
// with the single-endpoint error vocabulary; its neighbors still compile.
func TestBatchPerEntryErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxInFlight: 1})
	entries := []CompileRequest{
		{MIR: kernelMIR, Method: "bpc"},
		{MIR: "not mir at all", Method: "bpc"},
		{MIR: kernelMIR, Method: "warp-drive"},
		{MIR: moduleMIR, Method: "bpc"}, // two functions: not a batch entry
		{MIR: kernelMIR, Method: "non"},
	}
	_, br := postBatch(t, ts.URL, BatchRequest{Entries: entries})
	if br == nil {
		t.Fatal("batch failed")
	}
	wantCodes := []string{"", CodeParse, CodeBadRequest, CodeBadRequest, ""}
	for i, want := range wantCodes {
		r := br.Results[i]
		if want == "" {
			if r.OK == nil {
				t.Fatalf("entry %d failed: %+v", i, r.Error)
			}
			continue
		}
		if r.Error == nil || r.Error.Code != want {
			t.Fatalf("entry %d: error %+v, want code %q", i, r.Error, want)
		}
	}
}

// TestBatchRejectsEmptyAndOversized covers the envelope-level failures.
func TestBatchRejectsEmptyAndOversized(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxInFlight: 1})
	resp, _ := postBatch(t, ts.URL, BatchRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d, want 400", resp.StatusCode)
	}
	over := make([]CompileRequest, maxBatchEntries+1)
	for i := range over {
		over[i] = CompileRequest{MIR: kernelMIR}
	}
	resp, _ = postBatch(t, ts.URL, BatchRequest{Entries: over})
	// The oversized batch hits either the entry bound or the body cap,
	// both client errors.
	if resp.StatusCode != http.StatusBadRequest && resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch: status %d, want 400/413", resp.StatusCode)
	}
}

// TestBatchDeadline pins that an expired batch deadline yields per-entry
// 504-coded errors, not an HTTP 5xx.
func TestBatchDeadline(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxInFlight: 1})
	big := ir.Print(workload.RandomSized(41, 4000))
	entries := []CompileRequest{
		{MIR: big, Method: "bpc"},
		{MIR: ir.Print(workload.RandomSized(42, 4000)), Method: "bpc"},
		{MIR: ir.Print(workload.RandomSized(43, 4000)), Method: "bpc"},
	}
	resp, br := postBatch(t, ts.URL, BatchRequest{Entries: entries, TimeoutMS: 1})
	if br == nil {
		t.Fatalf("batch status %d, want 200 with per-entry errors", resp.StatusCode)
	}
	deadline := 0
	for _, r := range br.Results {
		if r.Error != nil && r.Error.Code == CodeDeadline {
			deadline++
		}
	}
	if deadline == 0 {
		t.Fatalf("no entry reported a deadline: %+v", br.Results)
	}
}
