package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"prescount/internal/ir"
	"prescount/internal/workload"
)

// stripWall decodes a compile response and re-encodes it without wall_ns,
// the one field that legitimately differs between identical requests.
func stripWall(t *testing.T, body []byte) string {
	t.Helper()
	var doc map[string]any
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("response JSON: %v\nbody: %s", err, body)
	}
	delete(doc, "wall_ns")
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// legacyTokenPoster returns the module compile URL of a fresh daemon and a
// helper that posts to it, requires 200, and returns the response without
// wall_ns. prior_token belongs to the removed module-token protocol; clients
// that still send it must get the same bytes as without it (the compile
// cache serves the reuse).
func legacyTokenPoster(t *testing.T) (string, func(url, contentType, body string) string) {
	_, ts := newTestServer(t, Config{})
	post := func(url, contentType, body string) string {
		t.Helper()
		resp, err := http.Post(url, contentType, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d, body %s", resp.StatusCode, data)
		}
		return stripWall(t, data)
	}
	return ts.URL + "/v1/compile/module", post
}

// TestModuleTokenUnknown pins that a module request carrying an unknown
// prior_token JSON field answers 200 with the same bytes as the request
// without it.
func TestModuleTokenUnknown(t *testing.T) {
	url, post := legacyTokenPoster(t)
	plain, err := json.Marshal(CompileRequest{MIR: moduleMIR, EmitMIR: true})
	if err != nil {
		t.Fatal(err)
	}
	withToken := append(bytes.TrimSuffix(plain, []byte("}")), []byte(`,"prior_token":"0123456789abcdef"}`)...)
	want := post(url, "application/json", string(plain))
	if got := post(url, "application/json", string(withToken)); got != want {
		t.Errorf("JSON prior_token changed the response:\n%s\nwant:\n%s", got, want)
	}
}

// TestModuleTokenQueryParam pins that a raw-MIR module request carrying a
// prior_token query parameter answers 200 with the same bytes as the
// request without it.
func TestModuleTokenQueryParam(t *testing.T) {
	url, post := legacyTokenPoster(t)
	want := post(url+"?emit_mir=true", "text/plain", moduleMIR)
	if got := post(url+"?emit_mir=true&prior_token=0123456789abcdef", "text/plain", moduleMIR); got != want {
		t.Errorf("query prior_token changed the response:\n%s\nwant:\n%s", got, want)
	}
}

// TestModuleRecompileServedFromCache pins module recompiles over HTTP:
// after a module is compiled, posting it again (unchanged, with one
// function edited, or with one renamed) is served from the daemon's
// compile cache for every unchanged function, other options miss, and
// verified compiles bypass the cache. Each response equals, byte for byte,
// the same request answered by a fresh daemon.
func TestModuleRecompileServedFromCache(t *testing.T) {
	base := ir.NewModule("reuse")
	for i := 0; i < 4; i++ {
		f := workload.RandomSized(int64(100+i), 80)
		f.Name = string(rune('a'+i)) + "_kernel"
		base.Add(f)
	}
	variant := func(edit func(i int, f *ir.Func) *ir.Func) string {
		m := ir.NewModule(base.Name)
		for i, f := range base.SortedFuncs() {
			m.Add(edit(i, f.Clone()))
		}
		return ir.PrintModule(m)
	}
	tests := []struct {
		name                 string
		req                  CompileRequest
		wantHits, wantMisses int64
	}{
		{"unchanged", CompileRequest{MIR: ir.PrintModule(base)}, 4, 0},
		{"one edited", CompileRequest{MIR: variant(func(i int, f *ir.Func) *ir.Func {
			if i == 2 {
				g := workload.RandomSized(999, 90)
				g.Name = f.Name
				return g
			}
			return f
		})}, 3, 1},
		{"renamed", CompileRequest{MIR: variant(func(i int, f *ir.Func) *ir.Func {
			if i == 1 {
				f.Name = "renamed_" + f.Name
			}
			return f
		})}, 4, 0},
		{"other banks", CompileRequest{MIR: ir.PrintModule(base), Banks: 4}, 0, 4},
		{"verify bypass", CompileRequest{MIR: ir.PrintModule(base), Verify: true}, 0, 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			tc.req.EmitMIR = true
			s, ts := newTestServer(t, Config{})
			if resp, body := postJSON(t, ts.URL+"/v1/compile/module", CompileRequest{MIR: ir.PrintModule(base)}); resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d, body %s", resp.StatusCode, body)
			}
			before := s.Cache().Stats()
			resp, got := postJSON(t, ts.URL+"/v1/compile/module", tc.req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d, body %s", resp.StatusCode, got)
			}
			d := s.Cache().Stats().Delta(before)
			if d.FullHits != tc.wantHits || d.FullMisses != tc.wantMisses {
				t.Errorf("full layer: %d hits / %d misses, want %d / %d", d.FullHits, d.FullMisses, tc.wantHits, tc.wantMisses)
			}
			_, fresh := newTestServer(t, Config{})
			_, want := postJSON(t, fresh.URL+"/v1/compile/module", tc.req)
			if g, w := stripWall(t, got), stripWall(t, want); g != w {
				t.Errorf("recompile differs from a fresh daemon's answer:\n%s\nwant:\n%s", g, w)
			}
		})
	}
}
